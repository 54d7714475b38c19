// Tests for the format-planning API (hp_plan).
#include "core/hp_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/hp_dyn.hpp"
#include "core/reduce.hpp"
#include "workload/workload.hpp"

namespace hpsum {
namespace {

TEST(HpPlan, SuggestCoversPaperUniformWorkload) {
  // Fig 5-8 data: 32M values in [-0.5, 0.5]. The suggested format must
  // satisfy the plan; (6,3) — the paper's pick — must also satisfy it.
  SumPlan plan;
  plan.max_abs = 0.5;
  plan.min_abs = std::ldexp(1.0, -95);  // the paper's smallest magnitude
  plan.summands = 32u << 20;
  const HpConfig cfg = suggest_config(plan);
  EXPECT_TRUE(satisfies(cfg, plan));
  EXPECT_TRUE(satisfies(HpConfig{6, 3}, plan));
  // And the suggestion is minimal: one fewer fraction limb fails.
  EXPECT_FALSE(satisfies(HpConfig{cfg.n - 1, cfg.k - 1}, plan));
}

TEST(HpPlan, SuggestCoversWideRangeWorkload) {
  // Fig 4 data: [-2^191, 2^191], smallest 2^-223.
  SumPlan plan;
  plan.max_abs = std::ldexp(1.0, 191);
  plan.min_abs = std::ldexp(1.0, -223);
  plan.summands = 16u << 20;
  const HpConfig cfg = suggest_config(plan);
  EXPECT_TRUE(satisfies(cfg, plan));
  // HP(8,4) covers the range but NOT the full resolution of the smallest
  // summands (lsb 2^-256 > needed 2^-275) — matching DESIGN.md §7's note
  // that the paper's Fig 4 tolerates truncation at the bottom.
  EXPECT_FALSE(satisfies(HpConfig{8, 4}, plan));
}

TEST(HpPlan, HeadroomScalesWithSummandCount) {
  SumPlan plan;
  plan.max_abs = 1.0;
  plan.min_abs = 1.0;
  plan.summands = 1;
  const HpConfig small = suggest_config(plan);
  plan.summands = std::uint64_t{1} << 62;
  const HpConfig big = suggest_config(plan);
  EXPECT_GE(big.n - big.k, small.n - small.k);
  EXPECT_TRUE(satisfies(big, plan));
}

TEST(HpPlan, SuggestedConfigActuallySumsExactly) {
  // End-to-end: scan data, suggest, sum — no flags raised.
  const auto xs = workload::wide_range_set(5000, 9, -100, 90);
  const SumPlan plan = plan_for_data(xs);
  const HpConfig cfg = suggest_config(plan);
  const HpDyn total = reduce_hp(xs, cfg);
  EXPECT_EQ(total.status(), HpStatus::kOk);
}

TEST(HpPlan, MinAbsZeroRequestsSubnormalFloor) {
  SumPlan plan;
  plan.max_abs = 1.0;
  plan.min_abs = 0.0;
  plan.summands = 1000;
  const HpConfig cfg = suggest_config(plan);
  EXPECT_LE(min_exponent(cfg), -1074);
  EXPECT_TRUE(satisfies(cfg, plan));
}

TEST(HpPlan, AllZeroDataIsTrivial) {
  const std::vector<double> zeros(10, 0.0);
  const SumPlan plan = plan_for_data(zeros);
  EXPECT_EQ(plan.max_abs, 0.0);
  const HpConfig cfg = suggest_config(plan);
  EXPECT_EQ(cfg, (HpConfig{1, 0}));
}

TEST(HpPlan, PlanForDataScansCorrectly) {
  const std::vector<double> xs = {0.0, -8.0, 0.25, 2.0};
  const SumPlan plan = plan_for_data(xs);
  EXPECT_EQ(plan.max_abs, 8.0);
  EXPECT_EQ(plan.min_abs, 0.25);
  EXPECT_EQ(plan.summands, 4u);
}

TEST(HpPlan, RejectsBadInputs) {
  EXPECT_THROW((void)suggest_config(SumPlan{-1.0, 0.0, 1}), std::invalid_argument);
  EXPECT_THROW((void)suggest_config(SumPlan{1.0, 2.0, 1}), std::invalid_argument);
  EXPECT_THROW((void)suggest_config(SumPlan{1.0, 0.5, 0}), std::invalid_argument);
  EXPECT_THROW(
      (void)suggest_config(SumPlan{std::numeric_limits<double>::infinity(), 0, 1}),
      std::invalid_argument);
  const std::vector<double> bad = {1.0, std::nan("")};
  EXPECT_THROW((void)plan_for_data(bad), std::invalid_argument);
}

TEST(HpPlan, UnsatisfiablePlanThrows) {
  // Full double range + subnormal resolution is exactly kFullRange, the
  // widest format; 2^64 such summands need an 18th integer limb.
  SumPlan plan;
  plan.max_abs = std::numeric_limits<double>::max();
  plan.min_abs = 0.0;
  plan.summands = 1;
  EXPECT_EQ(suggest_config(plan), kFullRange);
  plan.summands = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)suggest_config(plan), std::invalid_argument);
}

// Regression: satisfies() guarded !isfinite(max_abs) but not min_abs, so a
// NaN/Inf min_abs flowed into std::ilogb and produced a garbage verdict
// (typically "satisfied") for a plan suggest_config() would reject.
TEST(HpPlanSatisfies, NonFiniteMinAbsIsNeverSatisfied) {
  SumPlan plan;
  plan.max_abs = 1.0;
  plan.summands = 100;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    plan.min_abs = bad;
    EXPECT_THROW((void)suggest_config(plan), std::invalid_argument);
    for (const HpConfig cfg : {HpConfig{2, 1}, HpConfig{6, 3},
                               HpConfig{16, 8}}) {
      EXPECT_FALSE(satisfies(cfg, plan))
          << "min_abs=" << bad << " cfg={" << cfg.n << "," << cfg.k << "}";
    }
  }
}

TEST(HpPlanSatisfies, InconsistentMinAboveMaxIsNeverSatisfied) {
  SumPlan plan;
  plan.max_abs = 1.0;
  plan.min_abs = 2.0;  // check_plan rejects min_abs > max_abs
  plan.summands = 10;
  EXPECT_THROW((void)suggest_config(plan), std::invalid_argument);
  EXPECT_FALSE(satisfies(HpConfig{6, 3}, plan));
}

}  // namespace
}  // namespace hpsum
