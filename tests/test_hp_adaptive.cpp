// Tests for HpAdaptive, the full-range accumulator (paper §V future work).
#include "core/hp_adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/hp_fixed.hpp"

#include "workload/workload.hpp"

namespace hpsum {
namespace {

TEST(HpAdaptive, StartsSmallAndStaysSmallForSmallData) {
  HpAdaptive acc;
  acc += 1.0;
  acc += -0.5;
  EXPECT_EQ(acc.to_double(), 0.5);
  EXPECT_EQ(acc.config().n, 2);
  EXPECT_EQ(acc.config(), (HpConfig{2, 1}));
}

TEST(HpAdaptive, GrowsIntegerSideForLargeMagnitudes) {
  HpAdaptive acc;
  acc += 1e30;  // needs ~100 integer bits
  EXPECT_GT(acc.config().n - acc.config().k, 1);
  EXPECT_EQ(acc.to_double(), 1e30);
}

TEST(HpAdaptive, GrowsFractionSideForTinyMagnitudes) {
  HpAdaptive acc;
  acc += std::ldexp(1.0, -200);
  EXPECT_GE(acc.config().k, 4);  // needs >= 253 fraction bits
  EXPECT_EQ(acc.to_double(), std::ldexp(1.0, -200));
}

TEST(HpAdaptive, ExactAcrossTwentyOrdersOfMagnitude) {
  HpAdaptive acc;
  acc += 1e18;
  acc += 1e-18;
  acc += -1e18;
  EXPECT_EQ(acc.to_double(), 1e-18);
  // The sum is exact, not merely close: the residual decimal is the exact
  // expansion of the double nearest 1e-18.
  HpAdaptive only_small;
  only_small += 1e-18;
  EXPECT_EQ(acc.to_decimal_string(), only_small.to_decimal_string());
}

TEST(HpAdaptive, RunningTotalOverflowIsRepaired) {
  // Each summand fits (2,1) but the total outgrows it; the sum must stay
  // exact, not saturated or flagged away.
  HpAdaptive acc;
  const double big = std::ldexp(1.0, 62);
  for (int i = 0; i < 8; ++i) acc += big;  // 2^65 total
  EXPECT_EQ(acc.to_double(), std::ldexp(1.0, 65));
}

TEST(HpAdaptive, NegativeRunningTotalOverflowIsRepaired) {
  HpAdaptive acc;
  const double big = -std::ldexp(1.0, 62);
  for (int i = 0; i < 8; ++i) acc += big;
  EXPECT_EQ(acc.to_double(), -std::ldexp(1.0, 65));
}

TEST(HpAdaptive, RepeatedOverflowRepairsCompose) {
  HpAdaptive acc;
  double oracle = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double x = std::ldexp(1.0, 55 + (i % 9));
    acc += x;
    oracle += x;  // exact: all values are large powers of two
  }
  EXPECT_EQ(acc.to_double(), oracle);
}

TEST(HpAdaptive, RejectsNonFinite) {
  HpAdaptive acc;
  EXPECT_THROW(acc += std::numeric_limits<double>::infinity(),
               std::invalid_argument);
  EXPECT_THROW(acc += std::numeric_limits<double>::quiet_NaN(),
               std::invalid_argument);
}

TEST(HpAdaptive, HugeMagnitudeAddsWithoutThrowing) {
  HpAdaptive acc;
  EXPECT_NO_THROW(acc += 1e300);  // needs ~16 integer limbs
  EXPECT_EQ(acc.to_double(), 1e300);
  EXPECT_EQ(acc.status(), HpStatus::kOk);
}

// The accumulator never changes shape, so the limb image, not just the
// value, is independent of the order of the adds.
TEST(HpAdaptive, ValueImageIsOrderInvariant) {
  const double big = std::ldexp(1.0, 62);
  HpAdaptive grouped;
  for (const double x : {big, big, -big, -big}) grouped += x;
  HpAdaptive alternating;
  for (const double x : {big, -big, big, -big}) alternating += x;
  EXPECT_EQ(grouped.value(), alternating.value());
  EXPECT_EQ(grouped.config(), (HpConfig{1, 0}));

  auto xs = workload::wide_range_set(1 << 16, 31);
  HpAdaptive in_order;
  for (const double x : xs) in_order += x;
  workload::shuffle(xs, 32);
  HpAdaptive shuffled;
  for (const double x : xs) shuffled += x;
  EXPECT_EQ(in_order.value(), shuffled.value());
  EXPECT_EQ(in_order.status(), shuffled.status());
}

TEST(HpAdaptive, ExtremeMagnitudesCancelExactly) {
  const double huge = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  HpAdaptive acc;
  EXPECT_NO_THROW(acc += huge);
  EXPECT_NO_THROW(acc += tiny);
  EXPECT_NO_THROW(acc -= huge);
  EXPECT_EQ(acc.to_double(), tiny);
  HpAdaptive only_tiny;
  only_tiny += tiny;
  EXPECT_EQ(acc.value(), only_tiny.value());
  EXPECT_EQ(acc.config(), (HpConfig{17, 17}));
  EXPECT_EQ(acc.status(), HpStatus::kOk);
}

TEST(HpAdaptive, NarrowedValueKeepsSignAndDigits) {
  HpAdaptive neg;
  neg += -0.5;  // 0x8000... in one fraction limb is exactly -0.5
  EXPECT_EQ(neg.config(), (HpConfig{1, 1}));
  EXPECT_EQ(neg.value().to_double(), -0.5);

  const std::vector<double> xs = workload::wide_range_set(4096, 9, -100, 60);
  HpAdaptive acc;
  HpFixed<6, 3> fixed;
  for (const double x : xs) {
    acc += x;
    fixed += x;
  }
  const HpDyn narrow = acc.value();
  EXPECT_LE(narrow.config().n - narrow.config().k, 3);
  EXPECT_LE(narrow.config().k, 3);
  EXPECT_EQ(narrow.to_decimal_string(), fixed.to_decimal_string());
  EXPECT_EQ(narrow.to_double(), fixed.to_double());
}

TEST(HpAdaptive, MergeUnifiesFormats) {
  HpAdaptive big;
  big += 1e30;
  HpAdaptive small;
  small += std::ldexp(1.0, -200);
  big += small;
  EXPECT_EQ(big.to_double(), 1e30);
  // The merged value holds BOTH contributions exactly.
  HpAdaptive check;
  check += -1e30;
  big += check;
  EXPECT_EQ(big.to_double(), std::ldexp(1.0, -200));
}

TEST(HpAdaptive, MergeOverflowRepaired) {
  HpAdaptive a;
  HpAdaptive b;
  const double big = std::ldexp(1.0, 62);
  for (int i = 0; i < 3; ++i) {
    a += big;
    b += big;
  }
  a += b;
  EXPECT_EQ(a.to_double(), 6.0 * big);
}

TEST(HpAdaptive, MatchesCancellationOracle) {
  auto xs = workload::cancellation_set(2048, 77);
  workload::shuffle(xs, 5);
  HpAdaptive acc;
  for (const double x : xs) acc += x;
  EXPECT_EQ(acc.to_double(), 0.0);
  EXPECT_EQ(acc.to_decimal_string(), "0");
}

TEST(HpAdaptive, ZeroAddsAreFreeNoGrowth) {
  HpAdaptive acc;
  for (int i = 0; i < 10; ++i) acc += 0.0;
  EXPECT_EQ(acc.config(), (HpConfig{1, 0}));
  EXPECT_TRUE(acc.value().is_zero());
}

TEST(HpAdaptive, SubnormalInputsHandled) {
  const double tiny = std::numeric_limits<double>::denorm_min();  // 2^-1074
  HpAdaptive acc;
  acc += tiny;
  acc += tiny;
  EXPECT_EQ(acc.to_double(), 2.0 * tiny);
  EXPECT_GE(acc.config().k, 17);  // needs 1074 fraction bits
}

// Regression: operator+= used to call v_.clear_status() on entry AND exit,
// wiping every caller-visible sticky flag (a kInvalidOp or kInexact planted
// by div_small vanished after the next add). Every flag must stay sticky
// like on HpFixed/HpDyn.
TEST(HpAdaptiveStatus, AddDoubleKeepsUnrelatedFlagsSticky) {
  HpAdaptive acc;
  acc += 1.0;
  (void)acc.div_small(0);  // precondition violation -> sticky kInvalidOp
  ASSERT_TRUE(has(acc.status(), HpStatus::kInvalidOp));
  acc += 2.0;  // the add used to clear the whole mask
  EXPECT_TRUE(has(acc.status(), HpStatus::kInvalidOp));
  EXPECT_EQ(acc.to_double(), 3.0);
}

TEST(HpAdaptiveStatus, AddDoubleKeepsInexactFromDivSticky) {
  HpAdaptive acc;
  acc += 1.0;
  (void)acc.div_small(3);  // 1/3 truncates at the lsb -> sticky kInexact
  ASSERT_TRUE(has(acc.status(), HpStatus::kInexact));
  acc += 1.0;
  EXPECT_TRUE(has(acc.status(), HpStatus::kInexact));
}

TEST(HpAdaptiveStatus, AddAdaptiveMergesBothOperandsFlags) {
  HpAdaptive a, b;
  a += 1.0;
  b += 2.0;
  (void)a.div_small(0);  // kInvalidOp on the target
  (void)b.div_small(3);  // kInexact on the operand
  ASSERT_TRUE(has(a.status(), HpStatus::kInvalidOp));
  ASSERT_TRUE(has(b.status(), HpStatus::kInexact));
  a += b;
  EXPECT_TRUE(has(a.status(), HpStatus::kInvalidOp));
  EXPECT_TRUE(has(a.status(), HpStatus::kInexact));
}

TEST(HpAdaptiveStatus, HandledAddOverflowIsConsumedNotReported) {
  HpAdaptive acc;
  const double big = std::ldexp(1.0, 62);
  acc += big;
  acc += big;  // 2^63 would wrap a {2,1} total; the full range holds it
  EXPECT_FALSE(has(acc.status(), HpStatus::kAddOverflow));
  EXPECT_EQ(acc.status(), HpStatus::kOk);
  EXPECT_EQ(acc.to_double(), std::ldexp(1.0, 63));
}

TEST(HpAdaptiveStatus, ClearStatusResetsTheStickyMask) {
  HpAdaptive acc;
  (void)acc.div_small(0);
  ASSERT_NE(acc.status(), HpStatus::kOk);
  acc.clear_status();
  EXPECT_EQ(acc.status(), HpStatus::kOk);
}

}  // namespace
}  // namespace hpsum
