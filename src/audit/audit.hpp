// audit — "how order-sensitive is my reduction?" and "where exactly did
// two backends disagree?"
//
// Two diagnostics:
//   - order_sensitivity: the paper's §II.A study, packaged as a diagnostic
//     a user can run on their own data: shuffle the summands many times,
//     sum each order with plain doubles, and report the distribution of
//     results around the exact (HP) answer. A stddev of zero means the
//     data is benign at double precision; anything else quantifies how
//     much silent variation a parallel schedule could introduce — before
//     it shows up as an irreproducible run.
//   - compare_limbs / write_forensic_bundle: first-divergence forensics
//     for the order-invariance contract itself. When two backends that
//     must agree bit-for-bit don't, the bundle pins the first divergent
//     limb, both limb vectors in hex, both sticky statuses, an environment
//     fingerprint, and the last K flight-recorder events per thread
//     (trace/flight.hpp) — a non-reproducibility report actionable from a
//     single artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hp_config.hpp"
#include "core/hp_status.hpp"
#include "trace/trace.hpp"
#include "util/limbs.hpp"

namespace hpsum::audit {

/// Result of an order-sensitivity study.
struct SensitivityReport {
  std::size_t trials = 0;
  double exact = 0.0;        ///< HP exact sum, rounded once
  double mean = 0.0;         ///< mean of shuffled double sums
  double stddev = 0.0;       ///< spread of shuffled double sums
  double worst_abs_error = 0.0;  ///< max |double sum - exact|
  double naive_error = 0.0;  ///< |unshuffled double sum - exact|
  HpConfig config;           ///< format the audit sized for the data
  /// Telemetry delta across the study (what the exact reduction did: which
  /// deposit paths ran, flushes, status raises). All-zero in
  /// HPSUM_TRACE=OFF builds.
  trace::Snapshot trace_delta;
};

/// Runs the study: `trials` random permutations (deterministic in `seed`),
/// each summed left-to-right in double, compared against the exact HP sum
/// using a format sized from the data itself (hp_plan). Throws
/// std::invalid_argument for non-finite data or unsatisfiable formats.
[[nodiscard]] SensitivityReport order_sensitivity(std::span<const double> xs,
                                                  std::size_t trials = 256,
                                                  std::uint64_t seed = 1);

/// Outcome of a cross-backend bit comparison (compare_limbs).
struct DivergenceReport {
  bool diverged = false;       ///< any limb or status difference
  std::string label_a;         ///< e.g. "sequential"
  std::string label_b;         ///< e.g. "mpisim/8ranks"
  /// First differing limb index, big-endian like the HP layout itself
  /// (0 = MOST significant limb). SIZE_MAX when only the status differs or
  /// the limb counts disagree (then the shorter length is the "divergence"
  /// and limb_index is the common-prefix mismatch if any).
  std::size_t limb_index = SIZE_MAX;
  std::vector<util::Limb> limbs_a;
  std::vector<util::Limb> limbs_b;
  HpStatus status_a = HpStatus::kOk;
  HpStatus status_b = HpStatus::kOk;
};

/// Compares two HP limb vectors (plus their sticky statuses) that the
/// order-invariance contract says must be bit-identical. Returns a report
/// with diverged=false when they agree; otherwise the first divergent limb
/// index and both sides captured for the bundle.
[[nodiscard]] DivergenceReport compare_limbs(std::string_view label_a,
                                             util::ConstLimbSpan a,
                                             HpStatus status_a,
                                             std::string_view label_b,
                                             util::ConstLimbSpan b,
                                             HpStatus status_b);

/// Writes `report` as a JSON forensic bundle to `path` ("-" or "" =
/// stdout): schema marker "hpsum_forensic": 1, both limb vectors in hex,
/// the first divergent limb, sticky statuses, an environment fingerprint
/// (compiler, trace/flight state, hardware concurrency, HPSUM_*
/// environment), and the last `last_k_events` flight events per thread.
/// Written via trace::write_file; false when the write failed. Usable
/// for agreeing reports too ("diverged": false) as a run receipt.
[[nodiscard]] bool write_forensic_bundle(const std::string& path,
                           const DivergenceReport& report,
                           std::size_t last_k_events = 32);

/// The JSON body write_forensic_bundle emits (for tests and in-process
/// consumers).
[[nodiscard]] std::string forensic_bundle_json(const DivergenceReport& report,
                                               std::size_t last_k_events = 32);

}  // namespace hpsum::audit
