// Hallberg & Adcroft (2014) order-invariant sum — the paper's baseline.
//
// A real r is represented by N signed 64-bit integers a_i (eq. 1):
//
//   r = sum_{i=0}^{N-1} a_i * 2^(i*M - N*M/2)
//
// (limb 0 least significant here, following the weight formula). Each limb
// carries M < 63 payload bits; the remaining 63-M bits are a carry buffer,
// so limb-wise addition needs NO carry propagation for up to
// 2^(63-M) - 1 accumulations — carry *minimization*, where HP chooses
// information-content *maximization*. The price (paper §II.B):
//   - storage overhead: only M of every 64 bits carry value;
//   - aliasing: many limb images denote the same real, so comparison
//     requires normalize();
//   - the summand count must be known a priori or limbs overflow
//     catastrophically (add_checked() shows the runtime-guard alternative
//     the paper dismisses as expensive).
//
// HallbergFixed<N,M> is the compile-time-format variant used in hot bench
// loops (mirroring HpFixed); Hallberg is the runtime-format variant.
//
// Two deposit paths, bit-identical in limbs and in what they reject:
//   - add(double) is the paper's loop (eq. 1, §II.B): per limb, from the
//     top down, one FP multiply + truncate strips an M-bit slice and a
//     second multiply + subtract removes it (detail::hallberg_accumulate).
//     It is Fig 4's scalar column and the independent oracle the span path
//     is tested against.
//   - accumulate(span) is the span path. HallbergFixed with M >= 26
//     (every summand touches at most 3 limbs) takes the exponent-indexed
//     chunk deposit (detail::hallberg_chunk): per block of kChunkBlock
//     summands, three 64-bit sums per sign + biased exponent, folded into
//     the limbs once. Summands outside the exact window go through the
//     integer scatter (detail::hallberg_scatter), which is also the path
//     for M < 26 and for runtime Hallberg: each mantissa goes straight into
//     the 1 + ceil(52/M) limbs it can touch with integer shifts and masks.
//     docs/KERNELS.md ("Hallberg deposit") gives the exactness arguments.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/hp_dyn.hpp"
#include "core/hp_kernel.hpp"  // detail::pow2, f64_bits, f64_biased_exp

namespace hpsum {

namespace detail {

/// Wrapping signed add: two's-complement semantics even on (deliberate)
/// limb overflow — the Hallberg failure mode past max_summands() must be a
/// wrong answer, not undefined behavior.
inline std::int64_t wrap_add_i64(std::int64_t a, std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Accumulates double `r` into Hallberg limbs: strips one M-bit slice per
/// limb from the most significant weight down. Cost per limb: 2 FP
/// multiplies + 1 FP add + 1 integer add (the paper's 2N mult / N add
/// count). Bits below the lsb weight truncate toward zero. Returns false
/// (accumulating nothing) if |r| is outside the representable range
/// [0, range_max) or non-finite — the analogue of HP's kConvertOverflow.
inline bool hallberg_accumulate(double r, std::int64_t* a, int n,
                                const double* w, const double* winv,
                                double range_max) noexcept {
  if (!(std::fabs(r) < range_max)) return false;  // also rejects NaN
  for (int i = n - 1; i >= 0; --i) {
    const auto t = static_cast<std::int64_t>(r * winv[i]);
    a[i] = wrap_add_i64(a[i], t);
    r -= static_cast<double>(t) * w[i];
  }
  return true;
}

/// Limbs one 53-bit mantissa can touch: 1 + ceil(52/M).
[[nodiscard]] constexpr int hallberg_slices(int m) noexcept {
  return 1 + (52 + m - 1) / m;
}

/// Most limbs one mantissa can touch, at M = 1.
inline constexpr int kHallbergMaxSlices = hallberg_slices(1);

/// The integer-scatter span deposit: limbs AND the rejected count equal
/// calling hallberg_accumulate on every element in order, but each 53-bit
/// mantissa lands straight in the 1 + ceil(52/M) limbs it can touch via
/// integer shifts and masks — no per-limb FP strip. Returns how many values
/// were rejected (non-finite or |r| >= 2^(N*M/2)); they deposit nothing.
///
/// The deposits go into a working copy padded by kHallbergMaxSlices limbs,
/// so every slice is added unconditionally; the range check keeps the
/// mantissa below limb n, so the pad only ever receives zeros. The copy is
/// written back once per span. docs/KERNELS.md ("Hallberg deposit") holds
/// the bit-identity argument.
inline std::size_t hallberg_scatter(std::span<const double> xs,
                                    std::int64_t* a, int n,
                                    int m) noexcept {
  const int half = n * m / 2;  // range_max = 2^half; limb 0 weighs 2^-half
  const int slices = hallberg_slices(m);
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  std::int64_t work[kMaxLimbs + kHallbergMaxSlices] = {};
  for (int i = 0; i < n; ++i) work[i] = a[i];
  std::size_t rejected = 0;
  for (const double r : xs) {
    const std::uint64_t bits = f64_bits(r);
    const int be = f64_biased_exp(r);
    // |r| < 2^half  <=>  be < 1023 + half; half <= 960 also rejects the
    // Inf/NaN exponent 0x7FF.
    const bool ok = be < 1023 + half;
    rejected += ok ? 0 : 1;
    std::uint64_t m53 = bits & ((std::uint64_t{1} << 52) - 1);
    if (be != 0) m53 |= std::uint64_t{1} << 52;
    // Bit index of the mantissa lsb above limb 0's unit weight; bits below
    // it truncate toward zero, rejected values deposit zero at limb 0.
    const int lsb = (be != 0 ? be : 1) - 1075 + half;
    const int drop = lsb < 0 ? (-lsb < 63 ? -lsb : 63) : 0;
    m53 = ok ? m53 >> drop : 0;
    const int p = ok && lsb > 0 ? lsb : 0;
    __extension__ using U128 = unsigned __int128;
    const U128 v = static_cast<U128>(m53) << (p % m);
    // -1 when r < 0: (s ^ neg) - neg is then -s (no overflow, s < 2^62).
    const std::int64_t neg = -static_cast<std::int64_t>(bits >> 63);
    std::int64_t* dst = work + p / m;
    for (int j = 0; j < slices; ++j) {
      const auto s = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(v >> (j * m)) & mask);
      dst[j] = wrap_add_i64(dst[j], (s ^ neg) - neg);
    }
  }
  for (int i = 0; i < n; ++i) a[i] = work[i];
  return rejected;
}

/// Per-format constants of the chunk deposit (hallberg_chunk), indexed by
/// biased exponent be. A summand deposits exactly, untruncated and in
/// range, iff be_lo <= be < be_end; its mantissa lsb then sits r = lsb % M
/// bits into limb q = lsb / M, lsb = be - be_lo, and its three slices are
///   limb q:    (m53 & lo[be]) << r,       lo[be] = 2^(M-r) - 1
///   limb q+1:  (m53 >> (M-r)) & (2^M - 1)
///   limb q+2:  m53 >> s2[be],             s2[be] = min(2M - r, 63)
/// (2M - r >= 53 leaves nothing for limb q+2, as the 63 cap does). Entries
/// outside the window hold lo = 0, s2 = 63: any shift stays defined, and
/// the sums they feed are discarded.
struct HallbergChunkTable {
  int m = 0;
  int be_lo = 0;
  int be_end = 0;
  std::array<std::uint64_t, 2048> lo{};
  std::array<std::uint8_t, 2048> s2{};
};

[[nodiscard]] constexpr HallbergChunkTable hallberg_chunk_table(
    int n, int m) noexcept {
  HallbergChunkTable t;
  t.m = m;
  t.be_lo = 1075 - n * m / 2;  // lsb weight 2^-half: no bit truncates
  t.be_end = 1023 + n * m / 2;  // |r| < 2^half, the add() range check
  for (int be = 0; be < 2048; ++be) {
    const bool in = be >= t.be_lo && be < t.be_end;
    const int r = in ? (be - t.be_lo) % m : 0;
    const auto i = static_cast<std::size_t>(be);
    t.lo[i] = in ? (std::uint64_t{1} << (m - r)) - 1 : 0;
    t.s2[i] = static_cast<std::uint8_t>(in && 2 * m - r < 63 ? 2 * m - r
                                                              : 63);
  }
  return t;
}

/// The exponent-indexed chunk deposit (hallberg.cpp), for formats whose
/// summands touch at most 3 limbs (hallberg_slices(t.m) <= 3): limbs AND
/// the rejected count equal hallberg_scatter's, hence the add() loop's.
/// Each block of up to kernel::kChunkBlock summands adds into a per-thread
/// scratch, per sign + biased exponent (index bits >> 52), the three sums
///   A += m53,   B += m53 & lo[be],   C += m53 >> s2[be]
/// (prefetching kernel::kChunkPrefetch doubles ahead within the span).
/// Then each key in [be_lo, be_end) folds once: +-(B << r) into limb q,
/// +-(((A - B) >> (M - r)) - (C << M)) into limb q+1 and +-C into limb
/// q+2. Limbs are modular sums of per-summand slices, so any grouping of
/// the same slices gives the same limbs; A - B sums multiples of 2^(M-r),
/// so its shift is the exact sum of m53 >> (M - r). A block holding
/// summands outside the window (zero, subnormal, below the lsb, out of
/// range, NaN, Inf) zeroes their entries, which were zero at block start,
/// and deposits those summands through hallberg_scatter, which also
/// counts the rejections. Returns how many values were rejected.
std::size_t hallberg_chunk(std::span<const double> xs, std::int64_t* a,
                           int n, const HallbergChunkTable& t) noexcept;

/// Carry propagation to canonical form: every limb except the top lands in
/// [0, 2^M); the top limb keeps the sign. Resolves aliasing.
inline void hallberg_normalize(std::int64_t* a, int n, int m) noexcept {
  for (int i = 0; i < n - 1; ++i) {
    const std::int64_t c = a[i] >> m;  // floor division by 2^M (C++20)
    a[i] -= c << m;
    a[i + 1] = wrap_add_i64(a[i + 1], c);
  }
}

/// Deterministic conversion to double: normalize first, then sum limb
/// contributions from the most significant down (same order on every
/// architecture, hence reproducible, though multiply-rounded like any
/// float conversion of a >53-bit value).
inline double hallberg_to_double(const std::int64_t* a, int n, int m,
                                 const double* w) noexcept {
  std::int64_t tmp[kMaxLimbs];
  for (int i = 0; i < n; ++i) tmp[i] = a[i];
  hallberg_normalize(tmp, n, m);
  double r = 0.0;
  for (int i = n - 1; i >= 0; --i) {
    r += static_cast<double>(tmp[i]) * w[i];
  }
  return r;
}

}  // namespace detail

/// Hallberg format descriptor + the Table 2 parameter solver.
struct HallbergParams {
  int n = 10;  ///< limbs
  int m = 38;  ///< payload bits per limb, 1 <= m <= 62

  /// Payload precision in bits (Table 2 "Precision Bits" = N*M).
  [[nodiscard]] constexpr int precision_bits() const noexcept { return n * m; }

  /// Max guaranteed-safe accumulations without normalization,
  /// 2^(63-M) - 1 (Table 2 "Maximum Summands").
  [[nodiscard]] constexpr std::uint64_t max_summands() const noexcept {
    return (std::uint64_t{1} << (63 - m)) - 1;
  }

  /// Largest representable magnitude, 2^(N*M/2).
  [[nodiscard]] double range_max() const noexcept {
    return detail::pow2(n * m / 2);
  }

  /// Solves for the minimal-storage parameters providing at least
  /// `precision_bits` of payload while guaranteeing `summands` carry-free
  /// accumulations: M = 63 - ceil(log2(summands+1)), N = ceil(bits/M).
  /// Regenerates Table 2 for bits=512, summands in {2048, 1M, 64M}.
  static HallbergParams solve(int precision_bits, std::uint64_t summands);

  friend constexpr bool operator==(const HallbergParams&,
                                   const HallbergParams&) = default;
};

/// Compile-time-format Hallberg accumulator (the hot-loop variant).
template <int N, int M>
class HallbergFixed {
  static_assert(N >= 1 && N <= kMaxLimbs);
  static_assert(M >= 1 && M <= 62);
  static_assert(N * M / 2 + 62 <= 1022, "weights exceed double range");

 public:
  /// Zero value.
  constexpr HallbergFixed() = default;

  static constexpr HallbergParams params() noexcept { return {N, M}; }

  /// Accumulates a double; carry-free (2 FP mul + 1 FP add + 1 int add per
  /// limb). Out-of-range/non-finite values accumulate nothing and return
  /// false. After params().max_summands() accumulations without
  /// normalize(), limbs may overflow undetected — the a-priori contract.
  bool add(double r) noexcept {
    return detail::hallberg_accumulate(r, a_.data(), N, kW.data(),
                                       kWinv.data(), kRangeMax);
  }

  /// Accumulates a block through the chunk deposit (M >= 26) or the
  /// integer scatter: limbs bit-identical to calling add() on each element
  /// in order. Returns how many values add() would have rejected.
  std::size_t accumulate(std::span<const double> xs) noexcept {
    if constexpr (detail::hallberg_slices(M) <= 3) {
      return detail::hallberg_chunk(xs, a_.data(), N, kChunkTable);
    } else {
      return detail::hallberg_scatter(xs, a_.data(), N, M);
    }
  }

  /// Merges another partial sum (N integer adds).
  void add(const HallbergFixed& other) noexcept {
    for (int i = 0; i < N; ++i) {
      a_[i] = detail::wrap_add_i64(a_[i], other.a_[i]);
    }
  }

  /// Canonicalizes the limb image (resolves aliasing, restores carry
  /// headroom). Needed before comparing images or after max_summands().
  void normalize() noexcept { detail::hallberg_normalize(a_.data(), N, M); }

  /// Deterministic conversion to double.
  [[nodiscard]] double to_double() const noexcept {
    return detail::hallberg_to_double(a_.data(), N, M, kW.data());
  }

  /// Raw limbs (limb 0 least significant).
  [[nodiscard]] const std::array<std::int64_t, N>& limbs() const noexcept {
    return a_;
  }
  [[nodiscard]] std::array<std::int64_t, N>& limbs() noexcept { return a_; }

  /// Resets to zero.
  void clear() noexcept { a_.fill(0); }

 private:
  static constexpr std::array<double, N> kW = [] {
    std::array<double, N> out{};
    for (int i = 0; i < N; ++i) out[i] = detail::pow2(i * M - N * M / 2);
    return out;
  }();
  static constexpr std::array<double, N> kWinv = [] {
    std::array<double, N> out{};
    for (int i = 0; i < N; ++i) out[i] = detail::pow2(-(i * M - N * M / 2));
    return out;
  }();
  static constexpr double kRangeMax = detail::pow2(N * M / 2);
  static constexpr detail::HallbergChunkTable kChunkTable =
      detail::hallberg_chunk_table(N, M);

  std::array<std::int64_t, N> a_{};
};

/// Runtime-format Hallberg accumulator.
class Hallberg {
 public:
  /// Zero value. Throws std::invalid_argument for out-of-range parameters.
  explicit Hallberg(HallbergParams p);

  [[nodiscard]] HallbergParams params() const noexcept { return p_; }

  /// Accumulates a double (carry-free; see HallbergFixed::add).
  bool add(double r) noexcept {
    return detail::hallberg_accumulate(r, a_.data(), p_.n, w_.data(),
                                       winv_.data(), range_max_);
  }

  /// Accumulates a block (integer scatter; see HallbergFixed::accumulate).
  /// Returns how many values add() would have rejected.
  std::size_t accumulate(std::span<const double> xs) noexcept {
    return detail::hallberg_scatter(xs, a_.data(), p_.n, p_.m);
  }

  /// Accumulates with a runtime headroom guard: when any limb magnitude
  /// reaches 2^62, normalize() first. This is the "expensive carryout
  /// detection ... which defeats the purpose" alternative the paper
  /// mentions; bench/ablate_adaptive quantifies it.
  bool add_checked(double r) noexcept;

  /// Merges another partial sum. Formats must match (throws
  /// std::invalid_argument).
  void add(const Hallberg& other);

  /// Canonicalizes the limb image.
  void normalize() noexcept {
    detail::hallberg_normalize(a_.data(), p_.n, p_.m);
  }

  /// Deterministic conversion to double.
  [[nodiscard]] double to_double() const noexcept {
    return detail::hallberg_to_double(a_.data(), p_.n, p_.m, w_.data());
  }

  /// Exact conversion into an HP value (for bit-exact cross-method tests;
  /// cfg must be wide enough to hold every payload bit, or the returned
  /// value's status flags report the loss).
  [[nodiscard]] HpDyn to_hp(HpConfig cfg) const;

  /// Number of normalizations add_checked() performed.
  [[nodiscard]] std::int64_t normalizations() const noexcept {
    return normalizations_;
  }

  /// Raw limbs (limb 0 least significant).
  [[nodiscard]] const std::vector<std::int64_t>& limbs() const noexcept {
    return a_;
  }
  [[nodiscard]] std::vector<std::int64_t>& limbs() noexcept { return a_; }

  /// Resets to zero.
  void clear();

 private:
  HallbergParams p_;
  std::vector<std::int64_t> a_;
  std::vector<double> w_, winv_;
  double range_max_ = 0.0;
  std::int64_t normalizations_ = 0;
};

}  // namespace hpsum
