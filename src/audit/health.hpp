// health — derived numeric-health indicators over hpsum_trace snapshots.
//
// Raw counters answer "how much happened"; `exact_sum_cli --health`
// answers the next question: "is what happened *healthy*?" This layer is
// a fixed rule table that evaluates a Snapshot into named indicators,
// each a ratio of catalog counters with ok/warn/fail thresholds:
//
//   scatter.fast_path_coverage  scatter deposits / all deposits — the share
//                               of adds that took the paper's fast path
//   block.fast_coverage         (SIMD-lane + chunk deposits) / block
//                               deposits — how much of the block path
//                               skipped the element-wise loop
//   atomic.cas_retry_rate       CAS retries / CAS adds — contention on the
//                               shared accumulator
//   status.raise_rate           sticky-status raises / (scatter + reference
//                               + block deposits) — how often the
//                               exactness contract had to flag loss
//   mpisim.wire_compression     encoded / raw collective payload bytes —
//                               whether the sparse codec is earning its keep
//   snapshot.retry_rate         torn-shard re-reads / engine snapshots —
//                               reader/publisher collision pressure in the
//                               engine ShardSet seqlock
//
// A rule whose denominator is zero evaluates to kNotApplicable (that
// subsystem didn't run), never to a spurious ok/fail. Thresholds are
// "warn at" / "fail at" on the ratio, with a per-rule direction (a high
// fast-path coverage is good; a high retry rate is bad).
//
// The layer lives in src/audit (not src/trace) because it *consumes* the
// telemetry contract rather than defining it: trace stays dependency-free
// below core, while health sits beside the other diagnostics. These rules
// are the only implementation; docs/OBSERVABILITY.md documents them, and
// tools/telemetry_smoke.py checks a --health report only for internal
// consistency (ratio, level and overall against its own numbers).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace hpsum::audit {

enum class HealthLevel { kOk, kWarn, kFail, kNotApplicable };

[[nodiscard]] std::string_view to_string(HealthLevel level) noexcept;

/// One evaluated indicator.
struct HealthIndicator {
  std::string_view name;    ///< stable dotted name, e.g. "atomic.cas_retry_rate"
  HealthLevel level = HealthLevel::kNotApplicable;
  double ratio = 0.0;       ///< the evaluated ratio (0 when kNotApplicable)
  std::uint64_t numerator = 0;
  std::uint64_t denominator = 0;
  double warn_at = 0.0;     ///< threshold the warn level starts at
  double fail_at = 0.0;     ///< threshold the fail level starts at
  bool higher_is_better = false;
};

/// A full evaluation: every catalog rule, in rule-table order.
struct HealthReport {
  std::vector<HealthIndicator> indicators;
  /// Worst level across indicators (kNotApplicable entries are skipped;
  /// an all-N/A report is kNotApplicable).
  HealthLevel overall = HealthLevel::kNotApplicable;
};

/// Number of rules in the fixed catalog.
[[nodiscard]] std::size_t health_rule_count() noexcept;

/// Evaluates every rule against `snap`. In HPSUM_TRACE=OFF builds all
/// counters are zero, so every indicator is kNotApplicable — the report
/// stays well-formed either way.
[[nodiscard]] HealthReport evaluate_health(const trace::Snapshot& snap);

/// Looks an evaluated indicator up by its stable name.
[[nodiscard]] std::optional<HealthIndicator> find_indicator(
    const HealthReport& report, std::string_view name) noexcept;

/// {"hpsum_health": 1, "overall": "...", "indicators": [{name, level,
///  ratio, numerator, denominator, warn_at, fail_at, higher_is_better}]}
[[nodiscard]] std::string health_report_json(const HealthReport& report);

/// Convenience: evaluate_health(trace::snapshot()) rendered as JSON.
[[nodiscard]] std::string health_report_json();

}  // namespace hpsum::audit
