#include "hallberg/hallberg.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/hp_kernel_chunk.hpp"  // chunk::kCount, kNegative, kLine

namespace hpsum {

namespace detail {

namespace {

/// One scratch entry of the chunk deposit: the A, B and C sums of one
/// sign + biased exponent (hallberg_chunk).
struct SliceSums {
  std::uint64_t a, b, c;
};

/// The per-thread chunk scratch, 96 KiB. All-zero between blocks: fold
/// and clear zero every entry a block touched. As with the HP
/// chunk scratch, one per thread is enough: hallberg_chunk never yields.
thread_local SliceSums t_slices[kernel::chunk::kCount] = {};

/// Folds the entries of both signs for biased exponents lo..hi (all in
/// the window) into `work` and zeroes them. q and r walk up with be; the
/// running sums l0..l2 of limbs q..q+2 are modular, and limb q is final
/// once q moves on.
void fold(SliceSums* s, int lo, int hi, const HallbergChunkTable& t,
          std::int64_t* work) noexcept {
  using kernel::chunk::kNegative;
  const int m = t.m;
  int q = (lo - t.be_lo) / m;
  int r = (lo - t.be_lo) % m;
  std::uint64_t l0 = 0;
  std::uint64_t l1 = 0;
  std::uint64_t l2 = 0;
  const auto put = [&](int i, std::uint64_t d) {
    work[i] = wrap_add_i64(work[i], static_cast<std::int64_t>(d));
  };
  for (int be = lo; be <= hi; ++be) {
    // An untouched entry is all-zero and adds nothing.
    const SliceSums p = s[be];
    const SliceSums n = s[kNegative + be];
    s[be] = {};
    s[kNegative + be] = {};
    l0 += (p.b << r) - (n.b << r);
    l1 += (((p.a - p.b) >> (m - r)) - (p.c << m)) -
          (((n.a - n.b) >> (m - r)) - (n.c << m));
    l2 += p.c - n.c;
    if (++r == m) {
      put(q, l0);
      l0 = l1;
      l1 = l2;
      l2 = 0;
      r = 0;
      ++q;
    }
  }
  put(q, l0);
  put(q + 1, l1);
  put(q + 2, l2);
}

/// Zeroes both signs' entries for biased exponents lo..hi.
void clear(SliceSums* s, int lo, int hi) noexcept {
  using kernel::chunk::kNegative;
  if (lo > hi) return;
  std::fill(s + lo, s + hi + 1, SliceSums{});
  std::fill(s + kNegative + lo, s + kNegative + hi + 1, SliceSums{});
}

/// Deposits the summands of x[0..len) outside the window through the
/// scatter, in order, batched through a small stack buffer; returns how
/// many the scatter rejected.
std::size_t scatter_outside(const double* x, std::size_t len,
                            const HallbergChunkTable& t, std::int64_t* work,
                            int n) noexcept {
  double batch[256];
  std::size_t k = 0;
  std::size_t rejected = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const int be = f64_biased_exp(x[j]);
    if (be >= t.be_lo && be < t.be_end) continue;
    batch[k++] = x[j];
    if (k == std::size(batch)) {
      rejected += hallberg_scatter(std::span(batch, k), work, n, t.m);
      k = 0;
    }
  }
  return rejected + hallberg_scatter(std::span(batch, k), work, n, t.m);
}

}  // namespace

std::size_t hallberg_chunk(std::span<const double> xs, std::int64_t* a,
                           int n, const HallbergChunkTable& t) noexcept {
  using kernel::kChunkBlock;
  using kernel::kChunkPrefetch;
  using kernel::chunk::kLine;
  // Limbs q+1 and q+2 of the top keys may lie past limb n-1; the range
  // check keeps their sums zero, so the pad only ever receives zeros.
  std::int64_t work[kMaxLimbs + 2] = {};
  std::copy(a, a + n, work);
  SliceSums* scratch = t_slices;
  std::size_t rejected = 0;
  // Elements before `prefetch_end` may prefetch kChunkPrefetch ahead:
  // their target is still inside the span.
  const std::size_t prefetch_end =
      xs.size() > kChunkPrefetch ? xs.size() - kChunkPrefetch : 0;
  for (std::size_t i = 0; i < xs.size(); i += kChunkBlock) {
    const std::size_t len = std::min(xs.size() - i, kChunkBlock);
    const double* x = xs.data() + i;
    int lo = 0x7FF;
    int hi = 0;
    const auto add = [&](std::size_t j) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x[j]);
      const std::uint64_t idx = bits >> 52;
      const std::uint64_t m53 = (bits & kernel::kMask52) | kernel::kBit52;
      const int be = static_cast<int>(idx & 0x7FF);
      SliceSums& e = scratch[idx];
      e.a += m53;
      e.b += m53 & t.lo[static_cast<std::size_t>(be)];
      e.c += m53 >> t.s2[static_cast<std::size_t>(be)];
      lo = std::min(lo, be);
      hi = std::max(hi, be);
    };
    const std::size_t ahead =
        prefetch_end > i ? std::min(len, prefetch_end - i) : 0;
    std::size_t j = 0;
    for (; j + kLine <= ahead; j += kLine) {
      __builtin_prefetch(x + j + kChunkPrefetch);
      for (std::size_t u = 0; u < kLine; ++u) add(j + u);
    }
    for (; j < len; ++j) add(j);
    if (lo < t.be_lo || hi >= t.be_end) [[unlikely]] {
      // Summands outside the window: their entries hold nothing usable
      // and were zero at block start, so zeroing them restores the
      // scratch; the scatter deposits and counts those summands instead.
      clear(scratch, lo, std::min(hi, t.be_lo - 1));
      clear(scratch, std::max(lo, t.be_end), hi);
      rejected += scatter_outside(x, len, t, work, n);
      lo = std::max(lo, t.be_lo);
      hi = std::min(hi, t.be_end - 1);
    }
    if (lo <= hi) fold(scratch, lo, hi, t, work);
  }
  std::copy(work, work + n, a);
  return rejected;
}

}  // namespace detail

HallbergParams HallbergParams::solve(int precision_bits,
                                     std::uint64_t summands) {
  if (precision_bits < 1 || summands < 1) {
    throw std::invalid_argument("HallbergParams::solve: bad arguments");
  }
  // Carry buffer must absorb `summands` accumulations: 2^(63-M)-1 >= S.
  const int buffer_bits = std::bit_width(summands);
  const int m = 63 - buffer_bits;
  if (m < 1) {
    throw std::invalid_argument(
        "HallbergParams::solve: summand count leaves no payload bits");
  }
  const int n = (precision_bits + m - 1) / m;  // ceil(bits / M)
  return HallbergParams{n, m};
}

Hallberg::Hallberg(HallbergParams p) : p_(p) {
  if (p.n < 1 || p.n > kMaxLimbs || p.m < 1 || p.m > 62 ||
      p.n * p.m / 2 + 62 > 1022) {
    throw std::invalid_argument("Hallberg: parameters out of range");
  }
  a_.assign(static_cast<std::size_t>(p.n), 0);
  w_.resize(static_cast<std::size_t>(p.n));
  winv_.resize(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    const int e = i * p.m - p.n * p.m / 2;
    w_[static_cast<std::size_t>(i)] = detail::pow2(e);
    winv_[static_cast<std::size_t>(i)] = detail::pow2(-e);
  }
  range_max_ = p.range_max();
}

bool Hallberg::add_checked(double r) noexcept {
  // The runtime carry-out guard the paper calls prohibitively expensive:
  // scan every limb for headroom exhaustion before each accumulation.
  constexpr std::int64_t kGuard = std::int64_t{1} << 62;
  for (const std::int64_t limb : a_) {
    if (limb >= kGuard || limb <= -kGuard) {
      normalize();
      ++normalizations_;
      break;
    }
  }
  return add(r);
}

void Hallberg::add(const Hallberg& other) {
  if (other.p_ != p_) {
    throw std::invalid_argument("Hallberg: mixed formats in add");
  }
  for (std::size_t i = 0; i < a_.size(); ++i) {
    a_[i] = detail::wrap_add_i64(a_[i], other.a_[i]);
  }
}

HpDyn Hallberg::to_hp(HpConfig cfg) const {
  HpDyn acc(cfg);
  std::vector<util::Limb> term(static_cast<std::size_t>(cfg.n));

  for (int i = 0; i < p_.n; ++i) {
    const std::int64_t ai = a_[static_cast<std::size_t>(i)];
    if (ai == 0) continue;
    const bool neg = ai < 0;
    std::uint64_t mag = neg ? 0 - static_cast<std::uint64_t>(ai)
                            : static_cast<std::uint64_t>(ai);
    // Bit position (from the HP lsb) of this limb's unit weight.
    int p = (i * p_.m - p_.n * p_.m / 2) + 64 * cfg.k;
    HpStatus st = HpStatus::kOk;
    if (p < 0) {
      if (-p >= 64) {
        acc.or_status(HpStatus::kInexact);
        continue;
      }
      if ((mag & ((std::uint64_t{1} << -p) - 1)) != 0) st = HpStatus::kInexact;
      mag >>= -p;
      p = 0;
      if (mag == 0) {
        acc.or_status(st);
        continue;
      }
    }
    const int msb = p + 63 - std::countl_zero(mag);
    if (msb >= 64 * cfg.n - 1) {
      acc.or_status(HpStatus::kConvertOverflow);
      continue;
    }
    std::fill(term.begin(), term.end(), 0);
    const std::size_t li = static_cast<std::size_t>(cfg.n - 1 - p / 64);
    const int off = p % 64;
    term[li] |= mag << off;
    if (off != 0 && li >= 1) term[li - 1] |= mag >> (64 - off);
    if (neg) util::negate_twos(util::LimbSpan(term));

    HpDyn t(cfg);
    t.from_bytes(reinterpret_cast<const std::byte*>(term.data()));
    acc += t;
    acc.or_status(st);
  }
  return acc;
}

void Hallberg::clear() {
  std::fill(a_.begin(), a_.end(), 0);
  normalizations_ = 0;
}

}  // namespace hpsum
