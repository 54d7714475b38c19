// Format planning: choosing N and k from what you know about the data.
//
// The paper's §V flaw — "the user must know the range of real numbers to
// be summed, and tailor the HP parameters N and k appropriately" — is a
// sizing calculation. This header makes it executable: describe your data
// (magnitude bounds, summand count) and get the minimal HpConfig that
// guarantees an exact, overflow-free sum; or scan actual data and get the
// format it needs. When nothing is known, HpAdaptive sums in kFullRange,
// the format suggest_config returns for the whole double range.
#pragma once

#include <cstdint>
#include <span>

#include "core/hp_config.hpp"

namespace hpsum {

/// What is known about a summation workload a priori.
struct SumPlan {
  /// Largest |x| any summand can take (must be finite, > 0).
  double max_abs = 1.0;
  /// Smallest nonzero |x| that must be captured exactly. Use 0 to request
  /// full double resolution at max_abs's scale (53 bits below its msb is
  /// NOT enough for exactness of smaller summands — 0 means "resolve
  /// every bit of every summand", i.e. down to max_abs's scale minus 52
  /// and further down to the subnormal floor of the smallest expected
  /// value; pass the real bound when you have one).
  double min_abs = 0.0;
  /// Upper bound on the number of accumulations (headroom so the running
  /// total cannot overflow even if every summand has the same sign).
  std::uint64_t summands = 1;
};

/// Smallest config whose range and resolution satisfy `plan` exactly:
/// every summand converts exactly and summands * max_abs cannot overflow.
/// Throws std::invalid_argument for unsatisfiable plans (would exceed
/// kMaxLimbs) or nonsensical bounds.
[[nodiscard]] HpConfig suggest_config(const SumPlan& plan);

/// True iff `cfg` can run `plan` with zero rounding and zero overflow.
[[nodiscard]] bool satisfies(const HpConfig& cfg, const SumPlan& plan) noexcept;

/// Scans actual data and returns the plan it needs (max/min magnitudes and
/// count). Non-finite values throw std::invalid_argument.
[[nodiscard]] SumPlan plan_for_data(std::span<const double> xs);

}  // namespace hpsum
