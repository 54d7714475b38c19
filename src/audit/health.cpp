#include "audit/health.hpp"

#include <array>
#include <cstdio>

namespace hpsum::audit {

namespace {

using trace::Counter;

/// One rule: a named numerator/denominator pair over the counter catalog
/// plus thresholds. Numerators may sum several counters (status raises).
struct Rule {
  std::string_view name;
  std::array<Counter, 6> num;  ///< kCount-padded counter list to sum
  std::array<Counter, 3> den;
  double warn_at;
  double fail_at;
  bool higher_is_better;
  /// A codec that was never attached leaves encoded == raw byte-for-byte;
  /// rules with this set report kNotApplicable for the identity ratio
  /// instead of judging a subsystem that wasn't engaged.
  bool na_when_equal = false;
};

constexpr Counter kPad = Counter::kCount;

// The rule catalog (docs/OBSERVABILITY.md documents each indicator).
constexpr std::array<Rule, 6> kRules = {{
    // Share of deposits that took the paper's scatter fast path. Low
    // coverage means the workload is falling back to convert+add.
    {"scatter.fast_path_coverage",
     {Counter::kScatterAddCalls, kPad, kPad, kPad, kPad, kPad},
     {Counter::kScatterAddCalls, Counter::kReferenceAddCalls, kPad},
     /*warn_at=*/0.50, /*fail_at=*/0.20, /*higher_is_better=*/true},
    // Share of block-path deposits that took a fast path: the chunk
    // deposit or the SIMD lanes. Rollbacks, punts and scalar fallbacks
    // erode it.
    {"block.fast_coverage",
     {Counter::kBlockSimdDeposits, Counter::kBlockChunkDeposits, kPad, kPad,
      kPad, kPad},
     {Counter::kBlockDeposits, kPad, kPad},
     /*warn_at=*/0.50, /*fail_at=*/0.20, /*higher_is_better=*/true},
    // Failed CAS attempts per add on the shared accumulator. Sustained
    // contention says the deposit streams need more shards.
    {"atomic.cas_retry_rate",
     {Counter::kAtomicCasRetries, kPad, kPad, kPad, kPad, kPad},
     {Counter::kAtomicCasAdds, kPad, kPad},
     /*warn_at=*/0.50, /*fail_at=*/2.00, /*higher_is_better=*/false},
    // Sticky-status raises per deposit: how often the exactness contract
    // had to flag information loss (any HpStatus bit). Deposits are every
    // path's: scatter, reference and block. A block deposit past the
    // carry budget falls back to the scatter path and counts in both.
    {"status.raise_rate",
     {Counter::kStatusConvertOverflow, Counter::kStatusAddOverflow,
      Counter::kStatusToDoubleOverflow, Counter::kStatusInexact,
      Counter::kStatusToDoubleInexact, Counter::kStatusInvalidOp},
     {Counter::kScatterAddCalls, Counter::kReferenceAddCalls,
      Counter::kBlockDeposits},
     /*warn_at=*/0.25, /*fail_at=*/0.75, /*higher_is_better=*/false},
    // Encoded/raw collective payload bytes. The sparse codec's CI gate
    // demands <= 1/3; identity (codec never attached) is N/A.
    {"mpisim.wire_compression",
     {Counter::kMpisimWireEncodedBytes, kPad, kPad, kPad, kPad, kPad},
     {Counter::kMpisimWireRawBytes, kPad, kPad},
     /*warn_at=*/0.50, /*fail_at=*/0.90, /*higher_is_better=*/false,
     /*na_when_equal=*/true},
    // Torn-shard re-reads per engine snapshot. Sustained retries mean
    // readers keep colliding with publishes — snapshot consumers should
    // back off, or depositors should batch (fewer epoch bumps).
    {"snapshot.retry_rate",
     {Counter::kEngineSnapshotRetries, kPad, kPad, kPad, kPad, kPad},
     {Counter::kEngineSnapshots, kPad, kPad},
     /*warn_at=*/0.50, /*fail_at=*/2.00, /*higher_is_better=*/false},
}};

template <std::size_t N>
std::uint64_t sum_counters(const trace::Snapshot& snap,
                           const std::array<Counter, N>& cs) {
  std::uint64_t total = 0;
  for (const Counter c : cs) {
    if (c != kPad) total += snap.value(c);
  }
  return total;
}

HealthLevel judge(const Rule& rule, double ratio) {
  if (rule.higher_is_better) {
    if (ratio >= rule.warn_at) return HealthLevel::kOk;
    return ratio >= rule.fail_at ? HealthLevel::kWarn : HealthLevel::kFail;
  }
  if (ratio <= rule.warn_at) return HealthLevel::kOk;
  return ratio <= rule.fail_at ? HealthLevel::kWarn : HealthLevel::kFail;
}

/// kFail > kWarn > kOk > kNotApplicable for the overall roll-up.
int severity(HealthLevel level) {
  switch (level) {
    case HealthLevel::kFail: return 3;
    case HealthLevel::kWarn: return 2;
    case HealthLevel::kOk: return 1;
    case HealthLevel::kNotApplicable: return 0;
  }
  return 0;
}

std::string format_ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string_view to_string(HealthLevel level) noexcept {
  switch (level) {
    case HealthLevel::kOk: return "ok";
    case HealthLevel::kWarn: return "warn";
    case HealthLevel::kFail: return "fail";
    case HealthLevel::kNotApplicable: return "n/a";
  }
  return "n/a";
}

std::size_t health_rule_count() noexcept { return kRules.size(); }

HealthReport evaluate_health(const trace::Snapshot& snap) {
  HealthReport report;
  report.indicators.reserve(kRules.size());
  for (const Rule& rule : kRules) {
    HealthIndicator ind;
    ind.name = rule.name;
    ind.numerator = sum_counters(snap, rule.num);
    ind.denominator = sum_counters(snap, rule.den);
    ind.warn_at = rule.warn_at;
    ind.fail_at = rule.fail_at;
    ind.higher_is_better = rule.higher_is_better;
    const bool na = ind.denominator == 0 ||
                    (rule.na_when_equal && ind.numerator == ind.denominator);
    if (na) {
      ind.level = HealthLevel::kNotApplicable;
    } else {
      ind.ratio = static_cast<double>(ind.numerator) /
                  static_cast<double>(ind.denominator);
      ind.level = judge(rule, ind.ratio);
    }
    if (severity(ind.level) > severity(report.overall)) {
      report.overall = ind.level;
    }
    report.indicators.push_back(ind);
  }
  return report;
}

std::optional<HealthIndicator> find_indicator(const HealthReport& report,
                                              std::string_view name) noexcept {
  for (const HealthIndicator& ind : report.indicators) {
    if (ind.name == name) return ind;
  }
  return std::nullopt;
}

std::string health_report_json(const HealthReport& report) {
  std::string out = "{\n  \"hpsum_health\": 1,\n  \"overall\": \"";
  out += to_string(report.overall);
  out += "\",\n  \"indicators\": [\n";
  for (std::size_t i = 0; i < report.indicators.size(); ++i) {
    const HealthIndicator& ind = report.indicators[i];
    out += "    {\"name\": \"";
    out += ind.name;
    out += "\", \"level\": \"";
    out += to_string(ind.level);
    out += "\", \"ratio\": ";
    out += format_ratio(ind.ratio);
    out += ", \"numerator\": ";
    out += std::to_string(ind.numerator);
    out += ", \"denominator\": ";
    out += std::to_string(ind.denominator);
    out += ", \"warn_at\": ";
    out += format_ratio(ind.warn_at);
    out += ", \"fail_at\": ";
    out += format_ratio(ind.fail_at);
    out += ", \"higher_is_better\": ";
    out += ind.higher_is_better ? "true" : "false";
    out += "}";
    out += i + 1 < report.indicators.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string health_report_json() {
  return health_report_json(evaluate_health(trace::snapshot()));
}

}  // namespace hpsum::audit
