// HpAdaptive — exact sums with no a-priori range (the paper's §V future
// work). The paper's one conceded flaw is that N and k must be sized from
// the summands' range in advance. HpAdaptive needs no growth logic instead:
// it accumulates in kFullRange, which holds every finite double exactly,
// and narrows only when the format is read. Width costs nothing per
// summand, and the limb image, not just the value, is order-invariant.
#pragma once

#include <cstdint>
#include <string>

#include "core/hp_dyn.hpp"

namespace hpsum {

/// Exact accumulator over the full double range.
class HpAdaptive {
 public:
  /// Adds a double exactly. Throws std::invalid_argument for NaN/Inf.
  HpAdaptive& operator+=(double r);
  HpAdaptive& operator-=(double r) { return *this += -r; }

  /// Adds another value exactly; ORs in its sticky status.
  HpAdaptive& operator+=(const HpAdaptive& o) { v_ += o.v_; return *this; }

  [[nodiscard]] double to_double() const noexcept { return v_.to_double(); }
  [[nodiscard]] std::string to_decimal_string(std::size_t max_frac_digits = 0) const {
    return v_.to_decimal_string(max_frac_digits);
  }

  /// HpDyn::div_small at the kFullRange lsb, 2^-1088: the remainder is in
  /// those units, and truncation below it raises sticky kInexact.
  std::uint64_t div_small(std::uint64_t d) noexcept { return v_.div_small(d); }

  [[nodiscard]] HpStatus status() const noexcept { return v_.status(); }
  void clear_status() noexcept { v_.clear_status(); }

  /// The narrowest format holding the value exactly: zero is {1,0}, 0.5
  /// is {2,1}.
  [[nodiscard]] HpConfig config() const noexcept;

  /// The value and sticky status in config()'s format.
  [[nodiscard]] HpDyn value() const;

 private:
  HpDyn v_{kFullRange};
};

}  // namespace hpsum
