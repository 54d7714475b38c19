// Uniform accumulator adapters over the three summation methods.
//
// The scaling drivers (OpenMP, mpisim, cudasim, phisim) and the bench
// harnesses are templated on this small concept, so every figure's
// three-method comparison runs through identical driver code:
//
//   Acc a;                  // zero partial sum
//   a.accumulate(x);        // add one double
//   a.accumulate(span);     // add a block of doubles (same result, faster)
//   a.merge(other);         // combine partial sums
//   double r = a.result();  // final rounding to double
//   Acc::name();            // display label
//
// The span overload is semantically the element-at-a-time loop (for HP it
// is the bit-identical carry-deferred block fast path, for Hallberg the
// bit-identical exponent-indexed chunk deposit); the drivers hand
// each PE's whole slice to it so every method accumulates through its best
// available path.
#pragma once

#include <span>
#include <string>

#include "core/hp_fixed.hpp"
#include "hallberg/hallberg.hpp"

namespace hpsum::backends {

/// Plain double accumulation (the paper's baseline method).
struct DoubleSum {
  double v = 0.0;

  // hplint: allow(fp-accumulate) — this IS the order-sensitive baseline
  void accumulate(double x) noexcept { v += x; }
  void accumulate(std::span<const double> xs) noexcept {
    // hplint: allow(fp-accumulate) — the order-sensitive baseline, blocked
    for (const double x : xs) v += x;
  }
  // hplint: allow(fp-accumulate) — baseline partial-sum merge
  void merge(const DoubleSum& o) noexcept { v += o.v; }
  [[nodiscard]] double result() const noexcept { return v; }
  [[nodiscard]] static std::string name() { return "double"; }
};

/// HP accumulation with a compile-time format.
template <int N, int K>
struct HpSum {
  // Named `hp`, not `v`: hplint tracks double-typed names file-wide, and
  // DoubleSum::v above is a double — a shared name would read as FP
  // accumulation here.
  HpFixed<N, K> hp;

  // operator+=(double) is the scatter-add fast path (hp_kernel.hpp): the
  // mantissa lands directly in the affected limbs, no full-width temp.
  void accumulate(double x) noexcept { hp += x; }
  // The block fast path; bit-identical to the scalar loop, limbs + status.
  void accumulate(std::span<const double> xs) noexcept { hp.accumulate(xs); }
  void merge(const HpSum& o) noexcept { hp += o.hp; }
  [[nodiscard]] double result() const noexcept { return hp.to_double(); }
  [[nodiscard]] static std::string name() {
    return "HP(N=" + std::to_string(N) + ",k=" + std::to_string(K) + ")";
  }
};

/// Hallberg accumulation with a compile-time format.
template <int N, int M>
struct HallbergSum {
  HallbergFixed<N, M> hb;

  void accumulate(double x) noexcept { hb.add(x); }
  void accumulate(std::span<const double> xs) noexcept { hb.accumulate(xs); }
  void merge(const HallbergSum& o) noexcept { hb.add(o.hb); }
  [[nodiscard]] double result() const noexcept { return hb.to_double(); }
  [[nodiscard]] static std::string name() {
    return "Hallberg(N=" + std::to_string(N) + ",M=" + std::to_string(M) + ")";
  }
};

}  // namespace hpsum::backends
