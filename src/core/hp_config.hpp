// HP format configuration (the paper's N and k parameters).
//
// An HP number is N unsigned 64-bit limbs in two's complement, of which the
// last k hold the fraction (eq. 2):
//
//   r = sum_{i=0}^{N-1} a_i * 2^(64*(N-k-1-i))
//
// All bits carry value except bit 63 of limb 0, the sign bit. The tunable k
// "places precision where it is needed": N-k limbs of whole-number range vs
// k limbs of fractional resolution. Table 1 of the paper is regenerated from
// the formulas here (bench/table1_ranges).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace hpsum {

/// Hard cap on limbs per HP number (2176 bits, enough for kFullRange).
/// Sizes the per-call and per-flush stack scratch buffers; no accumulator
/// carries kMaxLimbs words per summand.
inline constexpr int kMaxLimbs = 34;

/// Runtime HP format descriptor. For compile-time formats see HpFixed<N,K>.
struct HpConfig {
  int n = 6;  ///< Total 64-bit limbs (paper: N).
  int k = 3;  ///< Fractional limbs, 0 <= k <= n (paper: k).

  friend constexpr bool operator==(const HpConfig&, const HpConfig&) = default;
};

/// The format that holds every finite double exactly: a double's msb
/// exponent is at most 1023 and its lsb exponent at least -1074, and
/// 17 integer + 17 fraction limbs span (-2^1087, 2^1087) on a 2^-1088
/// grid. The 63 spare integer bits mean no sum of up to 2^63 finite
/// doubles can overflow (suggest_config's coarser bound admits 2^62).
/// HpAdaptive accumulates in this format.
inline constexpr HpConfig kFullRange{34, 17};

/// Validates 1 <= n and 0 <= k <= n; throws std::invalid_argument otherwise.
constexpr void validate(const HpConfig& cfg) {
  if (cfg.n < 1 || cfg.k < 0 || cfg.k > cfg.n) {
    throw std::invalid_argument("HpConfig requires n >= 1 and 0 <= k <= n");
  }
}

/// Precision bits: every bit stores value except the single sign bit.
/// (Contrast Hallberg: N*M payload bits out of 64*N stored.)
constexpr int precision_bits(const HpConfig& cfg) noexcept {
  return 64 * cfg.n - 1;
}

/// Largest representable magnitude, 2^(64*(n-k)-1), as a double.
/// (Table 1 "Max Range"; the true positive max is one lsb below this.)
inline double max_range(const HpConfig& cfg) noexcept {
  return std::ldexp(1.0, 64 * (cfg.n - cfg.k) - 1);
}

/// Smallest positive representable value, 2^(-64k) (Table 1 "Smallest").
inline double smallest(const HpConfig& cfg) noexcept {
  return std::ldexp(1.0, -64 * cfg.k);
}

/// Binary exponent of the most significant value bit: range is
/// (-2^e, 2^e) with e = 64*(n-k)-1.
constexpr int max_exponent(const HpConfig& cfg) noexcept {
  return 64 * (cfg.n - cfg.k) - 1;
}

/// Binary exponent of the least significant value bit: -64*k.
constexpr int min_exponent(const HpConfig& cfg) noexcept {
  return -64 * cfg.k;
}

}  // namespace hpsum
