// Tests for the derived numeric-health layer (src/audit/health.*): the
// rule catalog evaluates trace snapshots into named ok/warn/fail
// indicators. Snapshots are constructed directly (they are plain data),
// so every judgment path is testable in ON and OFF builds alike; one
// end-to-end case reads the delta of a real reduction.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/health.hpp"
#include "core/reduce.hpp"
#include "trace/trace.hpp"

namespace {

namespace audit = hpsum::audit;
namespace trace = hpsum::trace;

using audit::HealthLevel;

trace::Snapshot snap_with(
    std::initializer_list<std::pair<trace::Counter, std::uint64_t>> vals) {
  trace::Snapshot s;
  for (const auto& [c, v] : vals) s.values[static_cast<std::size_t>(c)] = v;
  return s;
}

HealthLevel level_of(const trace::Snapshot& s, std::string_view name) {
  const auto ind = audit::find_indicator(audit::evaluate_health(s), name);
  EXPECT_TRUE(ind.has_value()) << name;
  return ind ? ind->level : HealthLevel::kNotApplicable;
}

TEST(Health, CatalogHasSixRulesInStableOrder) {
  EXPECT_EQ(audit::health_rule_count(), 6u);
  const audit::HealthReport report = audit::evaluate_health(trace::Snapshot{});
  ASSERT_EQ(report.indicators.size(), 6u);
  EXPECT_EQ(report.indicators[0].name, "scatter.fast_path_coverage");
  EXPECT_EQ(report.indicators[1].name, "block.fast_coverage");
  EXPECT_EQ(report.indicators[2].name, "atomic.cas_retry_rate");
  EXPECT_EQ(report.indicators[3].name, "status.raise_rate");
  EXPECT_EQ(report.indicators[4].name, "mpisim.wire_compression");
  EXPECT_EQ(report.indicators[5].name, "snapshot.retry_rate");
}

TEST(Health, EmptySnapshotIsAllNotApplicable) {
  const audit::HealthReport report = audit::evaluate_health(trace::Snapshot{});
  for (const auto& ind : report.indicators) {
    EXPECT_EQ(ind.level, HealthLevel::kNotApplicable) << ind.name;
    EXPECT_EQ(ind.ratio, 0.0) << ind.name;
  }
  EXPECT_EQ(report.overall, HealthLevel::kNotApplicable);
}

TEST(Health, HigherIsBetterDirection) {
  using C = trace::Counter;
  // scatter coverage = scatter / (scatter + reference).
  EXPECT_EQ(level_of(snap_with({{C::kScatterAddCalls, 80},
                                {C::kReferenceAddCalls, 20}}),
                     "scatter.fast_path_coverage"),
            HealthLevel::kOk);  // 0.80 >= warn_at 0.50
  EXPECT_EQ(level_of(snap_with({{C::kScatterAddCalls, 30},
                                {C::kReferenceAddCalls, 70}}),
                     "scatter.fast_path_coverage"),
            HealthLevel::kWarn);  // 0.30 in [0.20, 0.50)
  EXPECT_EQ(level_of(snap_with({{C::kScatterAddCalls, 10},
                                {C::kReferenceAddCalls, 90}}),
                     "scatter.fast_path_coverage"),
            HealthLevel::kFail);  // 0.10 < fail_at 0.20
}

TEST(Health, BlockCoverageCountsChunkAndSimdDeposits) {
  using C = trace::Counter;
  // (simd + chunk deposits) / block deposits: a bulk span deposited by the
  // chunk path with no SIMD lanes at all is full coverage, not a fail.
  EXPECT_EQ(level_of(snap_with({{C::kBlockChunkDeposits, 2048},
                                {C::kBlockDeposits, 2048}}),
                     "block.fast_coverage"),
            HealthLevel::kOk);
  EXPECT_EQ(level_of(snap_with({{C::kBlockChunkDeposits, 20},
                                {C::kBlockSimdDeposits, 20},
                                {C::kBlockDeposits, 100}}),
                     "block.fast_coverage"),
            HealthLevel::kWarn);  // 0.40 in [0.20, 0.50)
  EXPECT_EQ(level_of(snap_with({{C::kBlockSimdDeposits, 10},
                                {C::kBlockDeposits, 100}}),
                     "block.fast_coverage"),
            HealthLevel::kFail);  // 0.10 < fail_at 0.20
}

TEST(Health, LowerIsBetterDirection) {
  using C = trace::Counter;
  // CAS retry rate = retries / adds; warn_at 0.50, fail_at 2.00.
  EXPECT_EQ(level_of(snap_with({{C::kAtomicCasRetries, 10},
                                {C::kAtomicCasAdds, 100}}),
                     "atomic.cas_retry_rate"),
            HealthLevel::kOk);
  EXPECT_EQ(level_of(snap_with({{C::kAtomicCasRetries, 100},
                                {C::kAtomicCasAdds, 100}}),
                     "atomic.cas_retry_rate"),
            HealthLevel::kWarn);
  EXPECT_EQ(level_of(snap_with({{C::kAtomicCasRetries, 300},
                                {C::kAtomicCasAdds, 100}}),
                     "atomic.cas_retry_rate"),
            HealthLevel::kFail);
}

TEST(Health, StatusRaiseRateSumsEveryStickyBit) {
  using C = trace::Counter;
  // All six status counters feed the numerator; 6 raises over 24 deposits
  // sits exactly on warn_at 0.25, which is still ok (<=).
  const auto base = [](std::uint64_t deposits) {
    return snap_with({{C::kStatusConvertOverflow, 1},
                      {C::kStatusAddOverflow, 1},
                      {C::kStatusToDoubleOverflow, 1},
                      {C::kStatusInexact, 1},
                      {C::kStatusToDoubleInexact, 1},
                      {C::kStatusInvalidOp, 1},
                      {C::kScatterAddCalls, deposits}});
  };
  EXPECT_EQ(level_of(base(24), "status.raise_rate"), HealthLevel::kOk);
  EXPECT_EQ(level_of(base(8), "status.raise_rate"), HealthLevel::kWarn);
  EXPECT_EQ(level_of(base(4), "status.raise_rate"), HealthLevel::kFail);
}

TEST(Health, StatusRaiseRateCountsBlockPathDeposits) {
  using C = trace::Counter;
  // Block-path deposits are deposits: raises over block deposits alone
  // are a rate, not n/a.
  EXPECT_EQ(level_of(snap_with({{C::kStatusInexact, 90},
                                {C::kBlockDeposits, 100}}),
                     "status.raise_rate"),
            HealthLevel::kFail);
  // End to end: a span reduction whose every tiny summand falls below
  // HP(2,1)'s lsb raises kInexact once per such deposit, all on the block
  // path (no scatter or reference calls).
  std::vector<double> xs(10000, 1e-30);
  xs.push_back(1.0);
  const trace::Snapshot before = trace::snapshot();
  const hpsum::HpDyn acc = hpsum::reduce_hp(xs, hpsum::HpConfig{2, 1});
  const trace::Snapshot d = trace::snapshot().delta_since(before);
  EXPECT_TRUE(hpsum::has(acc.status(), hpsum::HpStatus::kInexact));
  const auto ind = audit::find_indicator(audit::evaluate_health(d),
                                         "status.raise_rate");
  ASSERT_TRUE(ind.has_value());
  if constexpr (trace::enabled()) {
    EXPECT_EQ(d.value(C::kScatterAddCalls) + d.value(C::kReferenceAddCalls),
              0u);
    EXPECT_EQ(ind->numerator, 10000u);
    EXPECT_EQ(ind->denominator, 10001u);
    EXPECT_EQ(ind->level, HealthLevel::kFail);
  } else {
    EXPECT_EQ(ind->level, HealthLevel::kNotApplicable);
  }
}

TEST(Health, WireCompressionIdentityIsNotApplicable) {
  using C = trace::Counter;
  // encoded == raw means the codec was never attached: N/A, not a fail.
  EXPECT_EQ(level_of(snap_with({{C::kMpisimWireEncodedBytes, 100},
                                {C::kMpisimWireRawBytes, 100}}),
                     "mpisim.wire_compression"),
            HealthLevel::kNotApplicable);
  EXPECT_EQ(level_of(snap_with({{C::kMpisimWireEncodedBytes, 30},
                                {C::kMpisimWireRawBytes, 100}}),
                     "mpisim.wire_compression"),
            HealthLevel::kOk);
  EXPECT_EQ(level_of(snap_with({{C::kMpisimWireEncodedBytes, 70},
                                {C::kMpisimWireRawBytes, 100}}),
                     "mpisim.wire_compression"),
            HealthLevel::kWarn);
  EXPECT_EQ(level_of(snap_with({{C::kMpisimWireEncodedBytes, 95},
                                {C::kMpisimWireRawBytes, 100}}),
                     "mpisim.wire_compression"),
            HealthLevel::kFail);
}

TEST(Health, OverallIsTheWorstNonNaLevel) {
  using C = trace::Counter;
  // Good scatter coverage but terrible CAS contention: overall kFail.
  const auto mixed = snap_with({{C::kScatterAddCalls, 100},
                                {C::kAtomicCasRetries, 500},
                                {C::kAtomicCasAdds, 100}});
  const audit::HealthReport report = audit::evaluate_health(mixed);
  EXPECT_EQ(report.overall, HealthLevel::kFail);

  const auto good = snap_with({{C::kScatterAddCalls, 100}});
  EXPECT_EQ(audit::evaluate_health(good).overall, HealthLevel::kOk);
}

TEST(Health, IndicatorCarriesRatioAndThresholds) {
  using C = trace::Counter;
  const auto snap = snap_with({{C::kAtomicCasRetries, 25},
                               {C::kAtomicCasAdds, 100}});
  const auto ind = audit::find_indicator(audit::evaluate_health(snap),
                                         "atomic.cas_retry_rate");
  ASSERT_TRUE(ind.has_value());
  EXPECT_DOUBLE_EQ(ind->ratio, 0.25);
  EXPECT_EQ(ind->numerator, 25u);
  EXPECT_EQ(ind->denominator, 100u);
  EXPECT_DOUBLE_EQ(ind->warn_at, 0.50);
  EXPECT_DOUBLE_EQ(ind->fail_at, 2.00);
  EXPECT_FALSE(ind->higher_is_better);
}

TEST(Health, FindIndicatorRejectsUnknownNames) {
  const audit::HealthReport report = audit::evaluate_health(trace::Snapshot{});
  EXPECT_TRUE(audit::find_indicator(report, "scatter.fast_path_coverage"));
  EXPECT_FALSE(audit::find_indicator(report, "no.such.rule"));
  EXPECT_FALSE(audit::find_indicator(report, ""));
}

TEST(Health, LevelNamesRoundTrip) {
  EXPECT_EQ(audit::to_string(HealthLevel::kOk), "ok");
  EXPECT_EQ(audit::to_string(HealthLevel::kWarn), "warn");
  EXPECT_EQ(audit::to_string(HealthLevel::kFail), "fail");
  EXPECT_EQ(audit::to_string(HealthLevel::kNotApplicable), "n/a");
}

TEST(Health, JsonCarriesVersionOverallAndEveryRule) {
  using C = trace::Counter;
  const auto snap = snap_with({{C::kScatterAddCalls, 100}});
  const std::string json =
      audit::health_report_json(audit::evaluate_health(snap));
  EXPECT_NE(json.find("\"hpsum_health\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"overall\": \"ok\""), std::string::npos);
  for (const char* name :
       {"scatter.fast_path_coverage", "block.fast_coverage",
        "atomic.cas_retry_rate", "status.raise_rate",
        "mpisim.wire_compression", "snapshot.retry_rate"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"level\": \"n/a\""), std::string::npos);
  EXPECT_NE(json.find("\"higher_is_better\": true"), std::string::npos);
  // The convenience overload renders the live registry without crashing.
  EXPECT_NE(audit::health_report_json().find("\"hpsum_health\": 1"),
            std::string::npos);
}

}  // namespace
