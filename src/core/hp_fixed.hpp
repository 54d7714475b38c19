// HpFixed<N,K> — the HP method's value type with compile-time format.
//
// This is the type to use in hot loops: N and K are template parameters, so
// the per-limb loops in the conversion and addition kernels unroll fully.
// For a format chosen at runtime use HpDyn (same representation and
// semantics, runtime loop bounds).
//
// Paper configurations used in the evaluation:
//   HpFixed<3,2>  — Fig 1 (perfect precision on cancellation sets)
//   HpFixed<6,3>  — Figs 5-8 (384-bit, vs Hallberg N=10,M=38)
//   HpFixed<8,4>  — Fig 4 (512-bit, vs Hallberg Table 2)
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/hp_config.hpp"
#include "core/hp_convert.hpp"
#include "core/hp_status.hpp"
#include "util/decimal.hpp"
#include "util/limbs.hpp"

namespace hpsum {

/// Fixed-point, order-invariant accumulator: N 64-bit limbs in two's
/// complement, K of them fractional. Addition is pure integer arithmetic,
/// so sums are bit-identical for any summation order, thread count, or
/// architecture. Overflow/underflow conditions accumulate in a sticky
/// status() mask instead of being silently dropped.
template <int N, int K>
class HpFixed {
  static_assert(N >= 1 && N <= kMaxLimbs, "limb count out of range");
  static_assert(K >= 0 && K <= N, "fractional limbs must satisfy 0 <= K <= N");

 public:
  /// Zero value.
  constexpr HpFixed() = default;

  /// Converts a double exactly (if in range; see status()).
  constexpr explicit HpFixed(double r) { *this += r; }

  /// Drains a BlockAccumulator of the same format: flushes its deferred
  /// carry-save planes and takes the normalized limbs + sticky status.
  constexpr explicit HpFixed(BlockAccumulator<N, K>& blk) noexcept {
    const util::ConstLimbSpan out = blk.limbs();  // flushes
    for (std::size_t i = 0; i < static_cast<std::size_t>(N); ++i) {
      limbs_[i] = out[i];
    }
    status_ = blk.status();
  }

  /// The format as a runtime descriptor.
  static constexpr HpConfig config() noexcept { return HpConfig{N, K}; }

  /// Total value-carrying bits (64N - 1; Table 1 discussion).
  static constexpr int precision_bits() noexcept { return 64 * N - 1; }

  /// Largest representable magnitude, 2^(64(N-K)-1) (Table 1 "Max Range").
  static double max_range() noexcept { return hpsum::max_range(config()); }

  /// Smallest positive representable value, 2^-64K (Table 1 "Smallest").
  static double smallest() noexcept { return hpsum::smallest(config()); }

  /// Adds a double through the fused scatter-add fast path: the mantissa
  /// lands directly in the 2-3 affected limbs and the carry/borrow
  /// propagates only until it dies — bit-identical (limbs and status) to
  /// the reference convert+add pair, kept below as add_double_reference()
  /// for differential testing.
  constexpr HpFixed& operator+=(double r) noexcept {
    status_ |= kernel::scatter_add(limbs_.data(), N, K, r);
    return *this;
  }

  /// Adds a block of doubles through the carry-deferred block fast path
  /// (BlockAccumulator): deposits land in per-limb carry-save planes and
  /// carries normalize once per flush instead of once per summand.
  /// Bit-identical (limbs and sticky status) to `for (x : xs) *this += x;`
  /// — the differential contract tests/test_block.cpp enforces.
  constexpr HpFixed& accumulate(std::span<const double> xs) noexcept {
    BlockAccumulator<N, K> blk(util::ConstLimbSpan(limbs_.data(), N), status_);
    blk.accumulate(xs);
    const util::ConstLimbSpan out = blk.limbs();  // flushes
    for (std::size_t i = 0; i < static_cast<std::size_t>(N); ++i) {
      limbs_[i] = out[i];
    }
    status_ = blk.status();
    return *this;
  }

  /// The original two-step path (paper Listings 1+2): full-width conversion
  /// into a temporary, then an O(N) carry add. Semantically identical to
  /// operator+=(double); retained as the reference implementation the
  /// scatter fast path is differentially fuzzed against
  /// (tests/test_scatter_add.cpp) and ablated against (bench/ablate_convert).
  constexpr HpFixed& add_double_reference(double r) noexcept {
    trace::count(trace::Counter::kReferenceAddCalls);
    util::Limb tmp[N];
    // Listing 1's float-scaling path needs its scale factors within double
    // exponent range; very wide formats use exact bit placement instead.
    HpStatus cst = HpStatus::kOk;
    if constexpr (N <= 16) {
      cst = detail::from_double_impl(r, tmp, N, K);
    } else {
      cst = detail::from_double_exact(r, tmp, N, K);
    }
    trace::count_status(cst);  // kernel::add below counts its own raises
    status_ |= cst;
    status_ |= kernel::add(limbs_.data(), tmp, N);
    return *this;
  }

  /// Subtracts a double.
  constexpr HpFixed& operator-=(double r) noexcept { return *this += -r; }

  /// Adds a long double exactly (x87 80-bit extended carries a 64-bit
  /// mantissa; no pre-rounding to double happens).
  HpFixed& operator+=(long double r) noexcept {
    util::Limb tmp[N];
    status_ |= detail::from_long_double_exact(r, tmp, N, K);
    status_ |= kernel::add(limbs_.data(), tmp, N);
    return *this;
  }

  /// Subtracts a long double exactly.
  HpFixed& operator-=(long double r) noexcept { return *this += -r; }

  /// Adds another HP value of the same format.
  constexpr HpFixed& operator+=(const HpFixed& other) noexcept {
    status_ |= other.status_;
    status_ |= kernel::add(limbs_.data(), other.limbs_.data(), N);
    return *this;
  }

  /// Subtracts another HP value of the same format (negate-then-add, so
  /// subtracting the most negative value flags kAddOverflow).
  constexpr HpFixed& operator-=(const HpFixed& other) noexcept {
    status_ |= other.status_;
    status_ |= kernel::sub(limbs_.data(), other.limbs_.data(), N);
    return *this;
  }

  friend constexpr HpFixed operator+(HpFixed a, const HpFixed& b) noexcept { return a += b; }
  friend constexpr HpFixed operator-(HpFixed a, const HpFixed& b) noexcept { return a -= b; }

  /// Scales by 2^e exactly (limb/bit shifts — no rounding for e >= 0).
  /// For e < 0 bits below the lsb truncate toward zero (kInexact); for
  /// e > 0 magnitude bits shifted past the range flag kAddOverflow.
  constexpr void scale_pow2(int e) noexcept {
    const bool neg = is_negative();
    if (neg) util::negate_twos(util::LimbSpan(limbs_.data(), N));
    const auto span = util::LimbSpan(limbs_.data(), N);
    if (e > 0) {
      const int msb = util::highest_set_bit(span);
      if (msb >= 0 && msb + e >= 64 * N - 1) {
        status_ |= HpStatus::kAddOverflow;
      }
      util::shift_left_limbs(span, static_cast<std::size_t>(e / 64));
      util::shift_left_bits(span, static_cast<unsigned>(e % 64));
    } else if (e < 0) {
      const int s = -e;
      // Detect truncated bits before shifting.
      if (util::highest_set_bit(span) >= 0) {
        for (int b = 0; b < s && b < 64 * N; ++b) {
          const int li = N - 1 - b / 64;
          if ((limbs_[static_cast<std::size_t>(li)] >> (b % 64)) & 1u) {
            status_ |= HpStatus::kInexact;
            break;
          }
        }
      }
      util::shift_right_limbs(span, static_cast<std::size_t>(s / 64));
      util::shift_right_bits(span, static_cast<unsigned>(s % 64));
    }
    if (neg) util::negate_twos(span);
  }

  /// Divides by a small positive integer exactly at lsb resolution
  /// (truncation toward zero); returns the remainder in lsb units.
  /// Together with the summand count this yields exact means:
  /// mean = (sum / n) with sub-lsb remainder reported, order-invariant.
  /// d == 0 violates the divisor precondition: the value is left unchanged,
  /// the remainder is 0, and kInvalidOp is raised (the sticky-status idiom
  /// — this is a public noexcept API, so the precondition cannot be UB).
  constexpr std::uint64_t div_small(std::uint64_t d) noexcept {
    if (d == 0) {
      status_ |= HpStatus::kInvalidOp;
      return 0;
    }
    const bool neg = is_negative();
    const auto span = util::LimbSpan(limbs_.data(), N);
    if (neg) util::negate_twos(span);
    const std::uint64_t rem = util::divmod_small(span, d);
    if (neg) util::negate_twos(span);
    if (rem != 0) status_ |= HpStatus::kInexact;
    return rem;
  }

  /// Two's complement negation in place. Negating the most negative value
  /// (-2^(64N-1)) overflows and is flagged.
  constexpr void negate() noexcept {
    status_ |= kernel::negate(limbs_.data(), N);
  }

  /// Rounds to the nearest double (ties to even). The single rounding of
  /// the whole accumulated sum.
  [[nodiscard]] constexpr double to_double() const noexcept {
    double out = 0.0;
    // hplint: allow(discard-status) — value-only query on a const object;
    // the overload below reports the rounding/overflow status
    detail::to_double_impl(limbs_.data(), N, K, &out);
    return out;
  }

  /// As to_double(), but also reports conversion status (range overflow /
  /// subnormal truncation) into `st`.
  [[nodiscard]] constexpr double to_double(HpStatus& st) const noexcept {
    double out = 0.0;
    st |= detail::to_double_impl(limbs_.data(), N, K, &out);
    return out;
  }

  /// Exact decimal rendering (see util::to_decimal_string).
  [[nodiscard]] std::string to_decimal_string(std::size_t max_frac_digits = 0) const {
    return util::to_decimal_string(util::ConstLimbSpan(limbs_.data(), N), K,
                                   max_frac_digits);
  }

  /// Parses an exact decimal string — the inverse of to_decimal_string(),
  /// for lossless round trips through text logs and checkpoints. Throws
  /// std::invalid_argument on syntax errors; range/precision violations
  /// surface as status flags.
  static HpFixed from_decimal_string(std::string_view s) {
    HpFixed out;
    switch (util::parse_decimal(s, util::LimbSpan(out.limbs_.data(), N), K)) {
      case util::ParseResult::kOk:
        break;
      case util::ParseResult::kInexact:
        out.status_ |= HpStatus::kInexact;
        break;
      case util::ParseResult::kOverflow:
        out.status_ |= HpStatus::kConvertOverflow;
        break;
      case util::ParseResult::kSyntax:
        throw std::invalid_argument("HpFixed: invalid decimal string");
    }
    return out;
  }

  /// True iff the value is negative (sign bit set).
  [[nodiscard]] constexpr bool is_negative() const noexcept { return (limbs_[0] >> 63) != 0; }

  /// True iff the value is exactly zero.
  [[nodiscard]] constexpr bool is_zero() const noexcept {
    return util::is_zero(util::ConstLimbSpan(limbs_.data(), N));
  }

  /// Sticky status accumulated by every operation since the last clear.
  [[nodiscard]] constexpr HpStatus status() const noexcept { return status_; }

  /// Clears the sticky status.
  constexpr void clear_status() noexcept { status_ = HpStatus::kOk; }

  /// ORs externally detected conditions into the sticky status (used by
  /// code that assembles limbs directly — deserialization, the device
  /// reductions — so no observed flag is ever dropped on the floor).
  constexpr void or_status(HpStatus s) noexcept { status_ |= s; }

  /// Resets to zero and clears status.
  constexpr void clear() noexcept {
    limbs_.fill(0);
    status_ = HpStatus::kOk;
  }

  /// Bit-exact equality (well-defined: the representation is canonical,
  /// unlike Hallberg's aliased encodings).
  friend constexpr bool operator==(const HpFixed& a, const HpFixed& b) noexcept {
    return a.limbs_ == b.limbs_;
  }

  /// Numeric ordering.
  friend constexpr std::strong_ordering operator<=>(const HpFixed& a, const HpFixed& b) noexcept {
    return kernel::compare(a.limbs_.data(), b.limbs_.data(), N) <=> 0;
  }

  /// Raw limbs, big-endian (limbs()[0] most significant). Exposed for
  /// serialization (mpisim datatypes) and for the atomic accumulator.
  [[nodiscard]] constexpr const std::array<util::Limb, N>& limbs() const noexcept {
    return limbs_;
  }

  /// Mutable raw limbs (deserialization). Caller owns canonical-form duty.
  [[nodiscard]] constexpr std::array<util::Limb, N>& limbs() noexcept { return limbs_; }

 private:
  std::array<util::Limb, N> limbs_{};
  HpStatus status_ = HpStatus::kOk;
};

}  // namespace hpsum
