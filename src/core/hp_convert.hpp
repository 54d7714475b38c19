// HP conversion kernels: double -> HP (paper Listing 1, generalized to any
// N,k and fixed for the inexact/underflow corner), exact bit-placement
// conversion, and HP -> double with correct round-to-nearest-even.
//
// The limb-arithmetic kernels (carry-propagating add, scatter-add deposit,
// negate/sub/compare, the block fast path) live in core/hp_kernel.hpp — the
// single-kernel home hplint rule L6 enforces. This header pulls it in, so
// existing includes of hp_convert.hpp keep seeing the whole core surface.
//
// The `detail` functions are header-inline and take (limbs, n, k) so that
// HpFixed<N,K> instantiates them with compile-time constants (the compiler
// unrolls the N-step loops) while HpDyn calls the same code through the
// runtime wrappers below. One implementation, two entry points.
//
// The double-path kernels are constexpr and libm-free: IEEE-754 fields are
// read and written with std::bit_cast instead of frexp/ldexp/isfinite, so
// the whole convert -> add -> convert pipeline can be evaluated at compile
// time. tests/test_constexpr_proofs.cpp turns that into static_assert
// proofs that the hot path is pure integer/bit arithmetic with no hidden
// dependence on the FP environment.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/hp_config.hpp"
#include "core/hp_kernel.hpp"
#include "core/hp_status.hpp"
#include "trace/trace.hpp"
#include "util/annotations.hpp"
#include "util/limbs.hpp"

namespace hpsum {

namespace detail {

/// Extracts the 64 bits [lowbit+63 .. lowbit] of a big-endian magnitude,
/// zero-filling positions outside [0, 64n). Bit 0 is the lsb of limbs[n-1].
/// Reads at most two limbs: the one holding `lowbit` (shifted down) and
/// the one above it (shifted up), for any lowbit, negative ones included.
constexpr std::uint64_t extract_u64(const util::Limb* limbs, int n,
                                    int lowbit) noexcept {
  if (lowbit <= -64 || lowbit >= 64 * n) return 0;
  // Word w counts limbs from the bottom; w = -1 is the zero word below
  // limb n-1, which holds lowbit when lowbit < 0.
  const int w = lowbit >= 0 ? lowbit / 64 : -1;
  const int off = lowbit - 64 * w;  // in [0, 64)
  const auto word = [&](int i) -> std::uint64_t {
    return i >= 0 && i < n ? limbs[n - 1 - i] : 0;
  };
  std::uint64_t out = word(w) >> off;
  if (off != 0) out |= word(w + 1) << (64 - off);
  return out;
}

/// True iff any bit strictly below `bit` is set.
constexpr bool any_bits_below(const util::Limb* limbs, int n,
                              int bit) noexcept {
  if (bit <= 0) return false;
  const int full = bit / 64;  // count of fully-below limbs (from the bottom)
  for (int i = 0; i < full; ++i) {
    if (limbs[n - 1 - i] != 0) return true;
  }
  const int rem = bit % 64;
  if (rem != 0) {
    const util::Limb mask = (util::Limb{1} << rem) - 1;
    if ((limbs[n - 1 - full] & mask) != 0) return true;
  }
  return false;
}

/// double -> HP, the paper's Listing 1 generalized:
///  - scales |r| so the integer part of the running remainder is the next
///    limb, peeling one limb per iteration (N FP multiplies + N FP adds);
///  - applies two's complement for negative values in the same pass with a
///    look-ahead carry (+1 lands at the lowest limb and propagates through
///    limbs whose *stored* lower part is zero);
///  - truncates toward zero any bits below 2^(-64k) and reports kInexact.
///
/// The look-ahead uses "remainder < weight of the lowest stored bit at this
/// step" rather than the paper's "remainder <= 0": the two agree whenever
/// the double converts exactly (the intended regime), and the former is also
/// correct when low bits are being truncated. DESIGN.md §7 discusses this.
///
/// Requires 64*(n-k-1) <= 960 (always true for n <= 16); larger formats must
/// use from_double_exact.
HPSUM_ALLOW_UNSIGNED_WRAP
constexpr HpStatus from_double_impl(double r, util::Limb* a, int n,
                                    int k) noexcept {
  if (!f64_is_finite(r)) {
    for (int i = 0; i < n; ++i) a[i] = 0;
    return HpStatus::kConvertOverflow;
  }
  HpStatus st = HpStatus::kOk;
  double dtmp = f64_abs(r) * pow2(-64 * (n - k - 1));
  if (dtmp >= pow2(63)) {
    for (int i = 0; i < n; ++i) a[i] = 0;
    return HpStatus::kConvertOverflow;
  }
  if (dtmp < pow2(-1022)) {
    // The scaling multiply underflowed into the subnormal range (or to
    // zero), losing mantissa bits before the residue check could see them.
    // For n <= 16, 2^-1022 < the format lsb's weight in scaled space
    // (2^(-64(n-1))), so the entire value sits below the lsb: the exact
    // result is zero, inexact unless r was zero.
    for (int i = 0; i < n; ++i) a[i] = 0;
    return (r != 0.0) ? HpStatus::kInexact : HpStatus::kOk;
  }
  const bool isneg = r < 0.0;
  for (int i = 0; i < n - 1; ++i) {
    const util::Limb itmp = static_cast<util::Limb>(dtmp);
    dtmp = (dtmp - static_cast<double>(itmp)) * pow2(64);
    // Lowest stored bit visible in the remaining limbs has weight
    // 2^(-64*(n-2-i)) at this step's scale; a remainder below it means all
    // stored lower limbs are zero and the two's-complement +1 reaches us.
    const bool low_zero = dtmp < pow2(-64 * (n - 2 - i));
    a[i] = isneg ? ~itmp + static_cast<util::Limb>(low_zero) : itmp;
  }
  const util::Limb last = static_cast<util::Limb>(dtmp);
  if (dtmp - static_cast<double>(last) > 0.0) st |= HpStatus::kInexact;
  a[n - 1] = isneg ? ~last + 1 : last;
  return st;
}

/// double -> HP by direct bit placement. Exact for every finite double and
/// valid for any n <= kMaxLimbs; used as the reference implementation in
/// tests and as the path for very wide formats. Reads the IEEE fields
/// directly: a normal double is (2^52 | frac) * 2^(E-1075), a subnormal is
/// frac * 2^-1074; either way the mantissa lands at storage-bit position
/// p = weight-of-lsb + 64k.
constexpr HpStatus from_double_exact(double r, util::Limb* a, int n,
                                     int k) noexcept {
  for (int i = 0; i < n; ++i) a[i] = 0;
  if (r == 0.0) return HpStatus::kOk;
  if (!f64_is_finite(r)) return HpStatus::kConvertOverflow;

  const int be = f64_biased_exp(r);
  std::uint64_t m53 = f64_bits(r) & ((std::uint64_t{1} << 52) - 1);
  if (be != 0) m53 |= std::uint64_t{1} << 52;  // implicit leading bit
  // Weight of m53's lsb: 2^(be-1075) for normals, 2^-1074 for subnormals;
  // in storage-bit coordinates that is position:
  int p = (be == 0 ? -1074 : be - 1075) + 64 * k;
  HpStatus st = HpStatus::kOk;

  if (p < 0) {
    // Low bits fall below 2^(-64k): truncate toward zero.
    if (-p >= 53) {
      return HpStatus::kInexact;  // r != 0 here, entirely below the lsb
    }
    if ((m53 & ((std::uint64_t{1} << -p) - 1)) != 0) st |= HpStatus::kInexact;
    m53 >>= -p;
    p = 0;
    if (m53 == 0) return st;
  }
  const int msb = p + 63 - std::countl_zero(m53);
  if (msb >= 64 * n - 1) {
    return HpStatus::kConvertOverflow;  // collides with or passes the sign bit
  }
  // Scatter m53 into the big-endian limb array at bit offset p.
  const int li = n - 1 - p / 64;
  const int off = p % 64;
  a[li] |= m53 << off;
  if (off != 0 && li >= 1) a[li - 1] |= m53 >> (64 - off);

  if ((f64_bits(r) >> 63) != 0) {
    util::negate_twos(util::LimbSpan(a, static_cast<std::size_t>(n)));
  }
  return st;
}

/// HP -> double with a single correct round-to-nearest-even at the end —
/// the "round once, after the reduction" promise of high-precision
/// intermediate sum methods. The result double is assembled field-by-field
/// (bit_cast, not ldexp): mant is 53 bits with the msb set, so a normal
/// result is encoded directly; a subnormal result re-rounds mant to the
/// subnormal grid (ties to even), exactly as ldexp would.
constexpr HpStatus to_double_impl(const util::Limb* a, int n, int k,
                                  double* out) noexcept {
  // A negative value is negated in a copy of its n limbs; a non-negative
  // one is read in place.
  const auto len = static_cast<std::size_t>(n);
  const bool neg = util::sign_bit(util::ConstLimbSpan(a, len));
  util::Limb negated[kMaxLimbs];
  const util::Limb* mag = a;
  if (neg) {
    for (int i = 0; i < n; ++i) negated[i] = a[i];
    util::negate_twos(util::LimbSpan(negated, len));
    mag = negated;
  }

  const int h = util::highest_set_bit(util::ConstLimbSpan(mag, len));
  if (h < 0) {
    *out = 0.0;
    return HpStatus::kOk;
  }
  const std::uint64_t top = extract_u64(mag, n, h - 63);
  const bool sticky = any_bits_below(mag, n, h - 63);
  std::uint64_t mant = top >> 11;          // 53 bits, msb set
  const std::uint64_t round = top & 0x7FF;  // guard + round bits
  const bool roundup =
      round > 0x400 || (round == 0x400 && (sticky || (mant & 1) != 0));
  mant += static_cast<std::uint64_t>(roundup);

  int e = (h - 64 * k) - 52;  // exponent of mant's lsb
  if (mant == (std::uint64_t{1} << 53)) {  // roundup carried out of 53 bits
    mant >>= 1;
    ++e;
  }
  const int be = e + 1075;  // biased exponent if encoded as a normal
  HpStatus st = HpStatus::kOk;
  std::uint64_t dbits = 0;
  if (be >= 0x7FF) {
    dbits = std::uint64_t{0x7FF} << 52;  // +inf
    st |= HpStatus::kToDoubleOverflow;
  } else if (be >= 1) {
    dbits = (static_cast<std::uint64_t>(be) << 52) |
            (mant & ((std::uint64_t{1} << 52) - 1));
  } else {
    // Subnormal range: round mant to the 2^-1074 grid, ties to even (the
    // same double rounding ldexp performed here before this was constexpr).
    const int sh = 1 - be;
    std::uint64_t q = 0;
    if (sh <= 54) {  // mant < 2^53, so sh > 54 rounds to zero
      q = mant >> sh;
      const std::uint64_t rem = mant & ((std::uint64_t{1} << sh) - 1);
      const std::uint64_t half = std::uint64_t{1} << (sh - 1);
      if (rem > half || (rem == half && (q & 1) != 0)) ++q;
    }
    dbits = q;  // subnormal encoding; q == 2^52 rolls into the first normal
    // Conservatively flag any subnormal/zero result (may flag a subnormal
    // that happened to convert exactly, never misses a lossy one).
    if (q < (std::uint64_t{1} << 52)) st |= HpStatus::kToDoubleInexact;
  }
  if (neg) dbits |= std::uint64_t{1} << 63;
  *out = std::bit_cast<double>(dbits);
  trace::count_status(st);
  return st;
}

}  // namespace detail

namespace detail {

/// long double -> HP by exact bit placement. On x86 the 80-bit extended
/// format carries a 64-bit mantissa, so sums computed in x87 registers can
/// enter an HP accumulator without rounding to double first. Exact for any
/// finite long double whose bits fit the format (others flag as usual).
/// (Not constexpr: long double has no bit_cast-able object representation,
/// so this path still goes through frexp/ldexp.)
inline HpStatus from_long_double_exact(long double r, util::Limb* a, int n,
                                       int k) noexcept {
  for (int i = 0; i < n; ++i) a[i] = 0;
  if (r == 0.0L) return HpStatus::kOk;
  if (!std::isfinite(r)) return HpStatus::kConvertOverflow;
  int exp = 0;
  const long double ld_mant = std::frexp(r < 0 ? -r : r, &exp);
  // |r| = ld_mant * 2^exp with ld_mant in [0.5, 1): extract 64 mantissa bits.
  auto m64 = static_cast<std::uint64_t>(std::ldexp(ld_mant, 64));
  int p = (exp - 64) + 64 * k;  // storage-bit position of m64's lsb
  HpStatus st = HpStatus::kOk;

  if (p < 0) {
    if (-p >= 64) return HpStatus::kInexact;
    if ((m64 & ((std::uint64_t{1} << -p) - 1)) != 0) st |= HpStatus::kInexact;
    m64 >>= -p;
    p = 0;
    if (m64 == 0) return st;
  }
  const int msb = p + 63 - std::countl_zero(m64);
  if (msb >= 64 * n - 1) return HpStatus::kConvertOverflow;
  const int li = n - 1 - p / 64;
  const int off = p % 64;
  a[li] |= m64 << off;
  if (off != 0 && li >= 1) a[li - 1] |= m64 >> (64 - off);
  if (r < 0.0L) {
    util::negate_twos(util::LimbSpan(a, static_cast<std::size_t>(n)));
  }
  return st;
}

}  // namespace detail

/// Runtime-config wrappers over the kernels above (implemented in
/// hp_convert.cpp; the limb-arithmetic wrappers hp_add / hp_scatter_add
/// live in hp_kernel.hpp/.cpp). `limbs` must have exactly cfg.n elements.
HpStatus hp_from_double(double r, util::LimbSpan limbs, const HpConfig& cfg) noexcept;
HpStatus hp_from_double_exact(double r, util::LimbSpan limbs, const HpConfig& cfg) noexcept;
HpStatus hp_from_long_double(long double r, util::LimbSpan limbs, const HpConfig& cfg) noexcept;
HpStatus hp_to_double(util::ConstLimbSpan limbs, const HpConfig& cfg, double* out) noexcept;

}  // namespace hpsum
