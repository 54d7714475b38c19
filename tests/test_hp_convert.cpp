// Tests for the core conversion/addition kernels (paper Listings 1 and 2).
//
// The two independent double->HP implementations (the paper's float-scaling
// single pass and the exact bit-placement path) must agree bit-for-bit on
// every input; that cross-check is the strongest property test here.
#include "core/hp_convert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/hp_config.hpp"
#include "util/limbs.hpp"
#include "util/prng.hpp"

namespace hpsum {
namespace {

using util::Limb;

std::vector<Limb> convert_impl(double r, const HpConfig& cfg,
                               HpStatus* st = nullptr) {
  std::vector<Limb> out(static_cast<std::size_t>(cfg.n));
  const HpStatus s = detail::from_double_impl(r, out.data(), cfg.n, cfg.k);
  if (st) *st = s;
  return out;
}

std::vector<Limb> convert_exact(double r, const HpConfig& cfg,
                                HpStatus* st = nullptr) {
  std::vector<Limb> out(static_cast<std::size_t>(cfg.n));
  const HpStatus s = detail::from_double_exact(r, out.data(), cfg.n, cfg.k);
  if (st) *st = s;
  return out;
}

double back(const std::vector<Limb>& limbs, const HpConfig& cfg) {
  double out = 0;
  detail::to_double_impl(limbs.data(), static_cast<int>(limbs.size()), cfg.k,
                         &out);
  return out;
}

/// Random double exactly representable in cfg (all 53 mantissa bits above
/// the HP lsb, msb below the sign bit).
double random_exact_double(util::Xoshiro256ss& rng, const HpConfig& cfg) {
  const int lo = min_exponent(cfg) + 53;
  const int hi = max_exponent(cfg) - 2;
  const int e = lo + static_cast<int>(rng.bounded(
                         static_cast<std::uint64_t>(hi - lo + 1)));
  const double mant = 1.0 + rng.uniform01();
  const double mag = std::ldexp(mant, e);
  return (rng.next() & 1) ? -mag : mag;
}

class HpConvertFormats : public ::testing::TestWithParam<HpConfig> {};

INSTANTIATE_TEST_SUITE_P(
    PaperAndEdgeFormats, HpConvertFormats,
    ::testing::Values(HpConfig{2, 1}, HpConfig{3, 2}, HpConfig{4, 2},
                      HpConfig{6, 3}, HpConfig{8, 4}, HpConfig{2, 0},
                      HpConfig{3, 3}, HpConfig{12, 6}, HpConfig{16, 8}),
    [](const auto& param_info) {
      return "N" + std::to_string(param_info.param.n) + "k" +
             std::to_string(param_info.param.k);
    });

TEST_P(HpConvertFormats, TwoConversionPathsAgreeBitForBit) {
  const HpConfig cfg = GetParam();
  util::Xoshiro256ss rng(1000 + static_cast<std::uint64_t>(cfg.n));
  for (int trial = 0; trial < 5000; ++trial) {
    const double r = random_exact_double(rng, cfg);
    HpStatus s1 = HpStatus::kOk;
    HpStatus s2 = HpStatus::kOk;
    const auto a = convert_impl(r, cfg, &s1);
    const auto b = convert_exact(r, cfg, &s2);
    ASSERT_EQ(a, b) << "value " << r;
    EXPECT_EQ(s1, HpStatus::kOk);
    EXPECT_EQ(s2, HpStatus::kOk);
  }
}

TEST_P(HpConvertFormats, RoundTripIsExact) {
  const HpConfig cfg = GetParam();
  util::Xoshiro256ss rng(2000 + static_cast<std::uint64_t>(cfg.n));
  for (int trial = 0; trial < 5000; ++trial) {
    const double r = random_exact_double(rng, cfg);
    const auto limbs = convert_impl(r, cfg);
    EXPECT_EQ(back(limbs, cfg), r);
  }
}

TEST_P(HpConvertFormats, ZeroConvertsToAllZeroLimbs) {
  const HpConfig cfg = GetParam();
  const auto a = convert_impl(0.0, cfg);
  for (const Limb limb : a) EXPECT_EQ(limb, 0u);
  EXPECT_EQ(back(a, cfg), 0.0);
  // -0.0 also maps to the canonical zero image.
  const auto b = convert_impl(-0.0, cfg);
  EXPECT_EQ(a, b);
}

TEST_P(HpConvertFormats, NegationIsTwosComplement) {
  const HpConfig cfg = GetParam();
  util::Xoshiro256ss rng(3000 + static_cast<std::uint64_t>(cfg.n));
  for (int trial = 0; trial < 2000; ++trial) {
    const double r = std::fabs(random_exact_double(rng, cfg));
    auto pos = convert_impl(r, cfg);
    const auto neg = convert_impl(-r, cfg);
    util::negate_twos(util::LimbSpan(pos));
    EXPECT_EQ(pos, neg) << "value " << r;
  }
}

TEST_P(HpConvertFormats, AdditionMatchesConversionOfSum) {
  // a + b computed in HP must equal converting the exactly-representable
  // double sum (choose summands with identical exponents so fl(a+b)=a+b).
  const HpConfig cfg = GetParam();
  util::Xoshiro256ss rng(4000 + static_cast<std::uint64_t>(cfg.n));
  for (int trial = 0; trial < 2000; ++trial) {
    const int e = min_exponent(cfg) + 54;
    // Even 53-bit mantissas: the sum has at most 54 significant bits with a
    // zero lsb, so fl(a+b) == a+b exactly and double is a valid oracle.
    const auto mant = [&] {
      return ((std::uint64_t{1} << 52) + rng.bounded(std::uint64_t{1} << 52)) &
             ~std::uint64_t{1};
    };
    const double a = std::ldexp(static_cast<double>(mant()), e - 52);
    const double b = std::ldexp(static_cast<double>(mant()), e - 52);
    const double sum = a + b;  // exact by construction
    auto la = convert_impl(a, cfg);
    const auto lb = convert_impl(b, cfg);
    const HpStatus st =
        detail::add_impl(la.data(), lb.data(), cfg.n);
    EXPECT_EQ(st, HpStatus::kOk);
    EXPECT_EQ(la, convert_impl(sum, cfg));
  }
}

TEST_P(HpConvertFormats, OverflowDetectedAtConversion) {
  const HpConfig cfg = GetParam();
  const double over = max_range(cfg);  // == 2^(64(n-k)-1), just out of range
  HpStatus st = HpStatus::kOk;
  const auto limbs = convert_impl(over, cfg, &st);
  EXPECT_TRUE(has(st, HpStatus::kConvertOverflow));
  for (const Limb limb : limbs) EXPECT_EQ(limb, 0u);

  st = HpStatus::kOk;
  convert_impl(std::ldexp(max_range(cfg), -1), cfg, &st);  // in range
  EXPECT_FALSE(has(st, HpStatus::kConvertOverflow));
}

TEST_P(HpConvertFormats, NonFiniteFlagsOverflow) {
  const HpConfig cfg = GetParam();
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    HpStatus st = HpStatus::kOk;
    const auto limbs = convert_impl(bad, cfg, &st);
    EXPECT_TRUE(has(st, HpStatus::kConvertOverflow));
    for (const Limb limb : limbs) EXPECT_EQ(limb, 0u);
  }
}

TEST(HpConvert, InexactTruncatesTowardZeroPositive) {
  // k=0: fractions truncate. 2.75 -> 2, flagged inexact.
  const HpConfig cfg{2, 0};
  HpStatus st = HpStatus::kOk;
  const auto limbs = convert_impl(2.75, cfg, &st);
  EXPECT_TRUE(has(st, HpStatus::kInexact));
  EXPECT_EQ(back(limbs, cfg), 2.0);
}

TEST(HpConvert, InexactTruncatesTowardZeroNegative) {
  // The corner the paper's Listing 1 look-ahead gets wrong (DESIGN.md §7):
  // -16.3 with k=0 must truncate to -16, not -17 or a wrapped image.
  const HpConfig cfg{2, 0};
  HpStatus st = HpStatus::kOk;
  const auto limbs = convert_impl(-16.3, cfg, &st);
  EXPECT_TRUE(has(st, HpStatus::kInexact));
  EXPECT_EQ(back(limbs, cfg), -16.0);
  // And it agrees with the exact path's truncation.
  HpStatus st2 = HpStatus::kOk;
  EXPECT_EQ(limbs, convert_exact(-16.3, cfg, &st2));
  EXPECT_TRUE(has(st2, HpStatus::kInexact));
}

TEST(HpConvert, NegativeAtLimbBoundaryPropagatesCarry) {
  // Exactly -2^64 with k=0,n=2: the two's-complement +1 must propagate
  // through an all-zero bottom limb.
  const HpConfig cfg{2, 0};
  const double v = -std::ldexp(1.0, 64);
  HpStatus st = HpStatus::kOk;
  const auto limbs = convert_impl(v, cfg, &st);
  EXPECT_EQ(st, HpStatus::kOk);
  EXPECT_EQ(limbs, convert_exact(v, cfg));
  EXPECT_EQ(back(limbs, cfg), v);
}

TEST(HpConvert, InexactNegativeTruncatesMagnitude) {
  // -1.5*2^-64 with lsb 2^-64: magnitude truncates toward zero to one lsb,
  // so the stored value is -2^-64 and kInexact is flagged. Both conversion
  // paths must agree bit-for-bit on this lossy input too.
  const HpConfig cfg{2, 1};
  const double w = -1.5 * std::ldexp(1.0, -64);
  HpStatus st = HpStatus::kOk;
  const auto limbs = convert_impl(w, cfg, &st);
  EXPECT_TRUE(has(st, HpStatus::kInexact));
  HpStatus st2 = HpStatus::kOk;
  EXPECT_EQ(limbs, convert_exact(w, cfg, &st2));
  EXPECT_TRUE(has(st2, HpStatus::kInexact));
  EXPECT_EQ(back(limbs, cfg), -std::ldexp(1.0, -64));
}

TEST(HpConvert, ScalingUnderflowStillFlagsInexact) {
  // Regression: |r| * 2^(-64(n-k-1)) can underflow below the double
  // subnormal floor, where Listing 1's residue check can no longer see the
  // lost bits. The value is correctly zero, and kInexact must still fire —
  // matching the exact path bit-for-bit and flag-for-flag.
  const HpConfig cfg{6, 3};  // scale 2^-128
  for (const double tiny :
       {1e-300, std::ldexp(1.0, -947), std::numeric_limits<double>::denorm_min()}) {
    HpStatus s1 = HpStatus::kOk;
    HpStatus s2 = HpStatus::kOk;
    const auto a = convert_impl(tiny, cfg, &s1);
    const auto b = convert_exact(tiny, cfg, &s2);
    EXPECT_EQ(a, b) << tiny;
    EXPECT_TRUE(has(s1, HpStatus::kInexact)) << tiny;
    EXPECT_TRUE(has(s2, HpStatus::kInexact)) << tiny;
    EXPECT_EQ(back(a, cfg), 0.0);
  }
  // And a subnormal input that IS representable converts exactly.
  const HpConfig wide{2, 2};  // pure fraction, lsb 2^-128
  HpStatus st = HpStatus::kOk;
  const auto limbs = convert_impl(std::ldexp(1.0, -100), wide, &st);
  EXPECT_EQ(st, HpStatus::kOk);
  EXPECT_EQ(back(limbs, wide), std::ldexp(1.0, -100));
}

TEST(HpConvert, SubLsbValueTruncatesToZero) {
  const HpConfig cfg{2, 1};  // lsb 2^-64
  HpStatus st = HpStatus::kOk;
  const auto limbs = convert_impl(std::ldexp(1.0, -100), cfg, &st);
  EXPECT_TRUE(has(st, HpStatus::kInexact));
  EXPECT_EQ(back(limbs, cfg), 0.0);
}

TEST(HpConvert, AddOverflowDetectedBySignRule) {
  const HpConfig cfg{2, 1};
  const double big = std::ldexp(1.0, 62);  // half of max range
  auto a = convert_impl(big, cfg);
  auto b = convert_impl(big, cfg);
  // 2^62 + 2^62 = 2^63 = max range: overflow.
  EXPECT_EQ(detail::add_impl(a.data(), b.data(), cfg.n),
            HpStatus::kAddOverflow);

  // Two's complement is asymmetric: -2^62 + -2^62 == -2^63 is exactly the
  // most negative representable value, NOT an overflow...
  auto c = convert_impl(-big, cfg);
  auto d = convert_impl(-big, cfg);
  EXPECT_EQ(detail::add_impl(c.data(), d.data(), cfg.n), HpStatus::kOk);
  // ...but one more lsb beyond it is.
  auto eps = convert_impl(-std::ldexp(1.0, -64), cfg);
  EXPECT_EQ(detail::add_impl(c.data(), eps.data(), cfg.n),
            HpStatus::kAddOverflow);

  // Mixed signs can never overflow.
  auto e = convert_impl(big, cfg);
  auto f = convert_impl(-big, cfg);
  EXPECT_EQ(detail::add_impl(e.data(), f.data(), cfg.n), HpStatus::kOk);
  EXPECT_EQ(back(e, cfg), 0.0);
}

TEST(HpConvert, AddCarryPropagatesAcrossAllLimbs) {
  // (2^64 - 2^-64) + 2^-64 = 2^64: carries ripple through every limb.
  const HpConfig cfg{3, 1};
  auto a = convert_impl(std::ldexp(1.0, 64), cfg);
  const auto b = convert_impl(-std::ldexp(1.0, -64), cfg);
  EXPECT_EQ(detail::add_impl(a.data(), b.data(), cfg.n), HpStatus::kOk);
  auto c = convert_impl(std::ldexp(1.0, -64), cfg);
  EXPECT_EQ(detail::add_impl(a.data(), c.data(), cfg.n), HpStatus::kOk);
  EXPECT_EQ(a, convert_impl(std::ldexp(1.0, 64), cfg));
}

TEST(HpConvert, SingleLimbFormatAdds) {
  // n == 1 exercises the degenerate path of Listing 2.
  const HpConfig cfg{1, 0};
  auto a = convert_impl(5.0, cfg);
  const auto b = convert_impl(7.0, cfg);
  EXPECT_EQ(detail::add_impl(a.data(), b.data(), cfg.n), HpStatus::kOk);
  EXPECT_EQ(back(a, cfg), 12.0);
}

TEST(HpConvert, ToDoubleRoundsToNearestEven) {
  // Construct 2^64 + 1 (65 significant bits) in a k=0 format: rounding to
  // double must drop the +1 (ties and below round down here).
  const HpConfig cfg{2, 0};
  std::vector<Limb> limbs = {1, 1};  // 2^64 + 1
  EXPECT_EQ(back(limbs, cfg), std::ldexp(1.0, 64));

  // 2^64 + 2^11 is the first value above 2^64 whose nearest double differs:
  // ulp at 2^64 is 2^12, so +2^11 is a tie -> rounds to even (stays 2^64);
  // +2^11+1 rounds up.
  limbs = {1, (Limb{1} << 11)};
  EXPECT_EQ(back(limbs, cfg), std::ldexp(1.0, 64));
  limbs = {1, (Limb{1} << 11) + 1};
  EXPECT_EQ(back(limbs, cfg), std::ldexp(1.0, 64) + std::ldexp(1.0, 12));
}

TEST(HpConvert, ToDoubleMatchesHardwareU128Conversion) {
  // Random 127-bit integers in a (2,0) format: to_double must agree with
  // the compiler/libgcc's correctly rounded __int128 -> double conversion.
  const HpConfig cfg{2, 0};
  util::Xoshiro256ss rng(77);
  for (int trial = 0; trial < 5000; ++trial) {
    const Limb hi = rng.next() >> 1;  // keep sign bit clear
    const Limb lo = rng.next();
    const std::vector<Limb> limbs = {hi, lo};
    __extension__ using U128 = unsigned __int128;
    const U128 v = (static_cast<U128>(hi) << 64) | lo;
    EXPECT_EQ(back(limbs, cfg), static_cast<double>(v));
  }
}

TEST(HpConvert, RuntimeWrappersMatchKernels) {
  const HpConfig cfg{6, 3};
  util::Xoshiro256ss rng(88);
  for (int trial = 0; trial < 1000; ++trial) {
    const double r = random_exact_double(rng, cfg);
    std::vector<Limb> a(static_cast<std::size_t>(cfg.n));
    hp_from_double(r, util::LimbSpan(a), cfg);
    EXPECT_EQ(a, convert_impl(r, cfg));
    double out = 0;
    hp_to_double(util::ConstLimbSpan(a), cfg, &out);
    EXPECT_EQ(out, r);
  }
}

TEST(HpConvert, WideFormatUsesExactPath) {
  // n > 16 routes through from_double_exact; round trip must still hold.
  const HpConfig cfg{20, 10};
  util::Xoshiro256ss rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const double r = rng.uniform(-1e6, 1e6);
    std::vector<Limb> a(static_cast<std::size_t>(cfg.n));
    const HpStatus st = hp_from_double(r, util::LimbSpan(a), cfg);
    EXPECT_FALSE(any_overflow(st));
    double out = 0;
    hp_to_double(util::ConstLimbSpan(a), cfg, &out);
    EXPECT_EQ(out, r);
  }
}

// ---------------------------------------------------------------------------
// Word-level extract_u64 / to_double_impl against the bit-at-a-time
// versions they replaced, kept here as the reference.

/// The original extract: one bit per iteration, 64 iterations.
constexpr std::uint64_t reference_extract_u64(const Limb* limbs, int n,
                                              int lowbit) {
  std::uint64_t out = 0;
  for (int b = 0; b < 64; ++b) {
    const int p = lowbit + b;
    if (p < 0 || p >= 64 * n) continue;
    const int li = n - 1 - p / 64;
    const int off = p % 64;
    out |= ((limbs[li] >> off) & 1ull) << b;
  }
  return out;
}

/// The original to_double_impl: negates a zeroed kMaxLimbs copy and
/// extracts with reference_extract_u64; the rounding is unchanged.
constexpr HpStatus reference_to_double(const Limb* a, int n, int k,
                                       double* out) {
  Limb mag[kMaxLimbs] = {};
  for (int i = 0; i < n; ++i) mag[i] = a[i];
  const auto span = util::LimbSpan(mag, static_cast<std::size_t>(n));
  const bool neg = util::sign_bit(span);
  if (neg) util::negate_twos(span);
  const int h = util::highest_set_bit(span);
  if (h < 0) {
    *out = 0.0;
    return HpStatus::kOk;
  }
  const std::uint64_t top = reference_extract_u64(mag, n, h - 63);
  const bool sticky = detail::any_bits_below(mag, n, h - 63);
  std::uint64_t mant = top >> 11;
  const std::uint64_t round = top & 0x7FF;
  const bool roundup =
      round > 0x400 || (round == 0x400 && (sticky || (mant & 1) != 0));
  mant += static_cast<std::uint64_t>(roundup);
  int e = (h - 64 * k) - 52;
  if (mant == (std::uint64_t{1} << 53)) {
    mant >>= 1;
    ++e;
  }
  const int be = e + 1075;
  HpStatus st = HpStatus::kOk;
  std::uint64_t dbits = 0;
  if (be >= 0x7FF) {
    dbits = std::uint64_t{0x7FF} << 52;
    st |= HpStatus::kToDoubleOverflow;
  } else if (be >= 1) {
    dbits = (static_cast<std::uint64_t>(be) << 52) |
            (mant & ((std::uint64_t{1} << 52) - 1));
  } else {
    const int sh = 1 - be;
    std::uint64_t q = 0;
    if (sh <= 54) {
      q = mant >> sh;
      const std::uint64_t rem = mant & ((std::uint64_t{1} << sh) - 1);
      const std::uint64_t half = std::uint64_t{1} << (sh - 1);
      if (rem > half || (rem == half && (q & 1) != 0)) ++q;
    }
    dbits = q;
    if (q < (std::uint64_t{1} << 52)) st |= HpStatus::kToDoubleInexact;
  }
  if (neg) dbits |= std::uint64_t{1} << 63;
  *out = std::bit_cast<double>(dbits);
  return st;
}

constexpr double to_double_of(const Limb* a, int n, int k) {
  double out = 0;
  detail::to_double_impl(a, n, k, &out);
  return out;
}

// Both stay constexpr: spot checks evaluated by the compiler.
constexpr Limb kTwoLimbs[2] = {0x1, 0x8000000000000001};
static_assert(detail::extract_u64(kTwoLimbs, 2, 63) == 0x3);
static_assert(detail::extract_u64(kTwoLimbs, 2, -1) == 0x2);
static_assert(detail::extract_u64(kTwoLimbs, 2, -64) == 0);
static_assert(detail::extract_u64(kTwoLimbs, 2, 128) == 0);
static_assert(detail::extract_u64(kTwoLimbs, 2, 1) ==
              reference_extract_u64(kTwoLimbs, 2, 1));
static_assert(detail::extract_u64(kTwoLimbs, 2, 64) ==
              reference_extract_u64(kTwoLimbs, 2, 64));
constexpr Limb kOneAndHalf[2] = {1, 0x8000000000000000};  // HP(2,1) 1.5
constexpr Limb kMinusOneAndHalf[2] = {0xFFFFFFFFFFFFFFFE, 0x8000000000000000};
static_assert(to_double_of(kOneAndHalf, 2, 1) == 1.5);
static_assert(to_double_of(kMinusOneAndHalf, 2, 1) == -1.5);
constexpr Limb kTinyNegative[1] = {0xFFFFFFFFFFFFFFFF};  // HP(1,0) -1
static_assert(to_double_of(kTinyNegative, 1, 0) == -1.0);

/// Sets bit p (bit 0 = lsb of limbs[n-1]) of a big-endian limb array.
void set_bit(std::vector<Limb>& limbs, int p) {
  const auto n = static_cast<int>(limbs.size());
  limbs[static_cast<std::size_t>(n - 1 - p / 64)] |= Limb{1} << (p % 64);
}

enum class Tail { kRandom, kTie, kTieSticky, kOnes };

/// A non-negative magnitude with its msb at bit h; below the msb, `tail`
/// picks random bits, an exact round-to-nearest tie (53 random top bits,
/// then the guard bit alone), a tie plus one sticky bit, or all ones.
std::vector<Limb> magnitude(int n, int h, Tail tail, util::Xoshiro256ss& rng) {
  std::vector<Limb> limbs(static_cast<std::size_t>(n), 0);
  set_bit(limbs, h);
  const int mant_low = tail == Tail::kRandom || tail == Tail::kOnes
                           ? 0
                           : std::max(h - 52, 0);
  for (int p = mant_low; p < h; ++p) {
    if (tail == Tail::kOnes || (rng.next() & 1) != 0) set_bit(limbs, p);
  }
  if ((tail == Tail::kTie || tail == Tail::kTieSticky) && h >= 53) {
    set_bit(limbs, h - 53);
    if (tail == Tail::kTieSticky && h >= 54) set_bit(limbs, 0);
  }
  return limbs;
}

TEST(HpConvertWordLevel, ExtractMatchesBitLoopAtEveryLowbit) {
  util::Xoshiro256ss rng(2024);
  for (const int n : {1, 2, 6, 34}) {
    std::vector<std::vector<Limb>> patterns;
    patterns.emplace_back(static_cast<std::size_t>(n), ~Limb{0});
    patterns.emplace_back(static_cast<std::size_t>(n), 0x8000000000000001);
    for (int i = 0; i < 4; ++i) {
      std::vector<Limb> random(static_cast<std::size_t>(n));
      for (Limb& l : random) l = rng.next();
      patterns.push_back(random);
    }
    for (const auto& limbs : patterns) {
      for (int lowbit = -64; lowbit <= 64 * n; ++lowbit) {
        ASSERT_EQ(detail::extract_u64(limbs.data(), n, lowbit),
                  reference_extract_u64(limbs.data(), n, lowbit))
            << "n=" << n << " lowbit=" << lowbit;
      }
    }
  }
}

TEST(HpConvertWordLevel, ToDoubleMatchesBitLoopReference) {
  // Every msb position h — so the bottom limb (lowbit = h - 63 < 0) and
  // both sides of every limb boundary — with each tail shape and sign,
  // in formats whose k puts the results in the normal, subnormal and
  // overflow ranges.
  util::Xoshiro256ss rng(4048);
  const HpConfig formats[] = {{1, 0}, {1, 1}, {2, 1}, {6, 3}, {34, 17},
                              {34, 0}};
  for (const HpConfig cfg : formats) {
    for (int h = 0; h < 64 * cfg.n - 1; ++h) {
      for (const Tail tail :
           {Tail::kRandom, Tail::kTie, Tail::kTieSticky, Tail::kOnes}) {
        auto limbs = magnitude(cfg.n, h, tail, rng);
        for (const bool negative : {false, true}) {
          if (negative) {
            util::negate_twos(util::LimbSpan(limbs));
          }
          double got = 0;
          double want = 0;
          const HpStatus got_st =
              detail::to_double_impl(limbs.data(), cfg.n, cfg.k, &got);
          const HpStatus want_st =
              reference_to_double(limbs.data(), cfg.n, cfg.k, &want);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want))
              << "n=" << cfg.n << " k=" << cfg.k << " h=" << h
              << " tail=" << static_cast<int>(tail) << " neg=" << negative;
          ASSERT_EQ(got_st, want_st) << "n=" << cfg.n << " h=" << h;
        }
      }
    }
  }
}

TEST(HpConvertWordLevel, TiesRoundToEvenInBothDirections) {
  // HP(2,0): 2^64 + 2^11 is a tie below an even mantissa (stays 2^64);
  // 2^64 + 3*2^11 is a tie below an odd one (rounds up to 2^64 + 2^13).
  const std::vector<Limb> even = {1, Limb{1} << 11};
  const std::vector<Limb> odd = {1, Limb{3} << 11};
  for (const auto* limbs : {&even, &odd}) {
    double got = 0;
    double want = 0;
    detail::to_double_impl(limbs->data(), 2, 0, &got);
    reference_to_double(limbs->data(), 2, 0, &want);
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(back(even, {2, 0}), std::ldexp(1.0, 64));
  EXPECT_EQ(back(odd, {2, 0}), std::ldexp(1.0, 64) + std::ldexp(1.0, 13));
}

}  // namespace
}  // namespace hpsum
