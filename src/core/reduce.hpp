// Sequential reduction kernels over arrays of doubles.
//
// These are the inner loops every backend (OpenMP, mpisim, cudasim, phisim)
// and every bench builds on. Both reduce_hp overloads route through the
// carry-deferred block fast path (core/hp_kernel.hpp BlockAccumulator):
// kernel::block_accumulate sums each block of up to 2048 summands into
// one 64-bit chunk per sign+exponent, prefetching the span 8 KiB ahead,
// and folds the chunks into per-limb carry-save planes once per block;
// carries normalize once per span — bit-identical, limbs and sticky
// status, to the element-at-a-time operator+=(double) loop.
// bench/ablate_block.cpp --json quantifies the speedup; HpFixed's
// add_double_reference keeps the original convert+add pair callable.
#pragma once

#include <span>

#include "core/hp_dyn.hpp"
#include "core/hp_fixed.hpp"

namespace hpsum {

/// HP sum of a slice with a compile-time format. Exact and order-invariant.
/// Routed through the carry-deferred block fast path (BlockAccumulator):
/// bit-identical to the element-at-a-time scalar loop, limbs and status.
template <int N, int K>
[[nodiscard]] HpFixed<N, K> reduce_hp(std::span<const double> xs) noexcept {
  BlockAccumulator<N, K> blk;
  blk.accumulate(xs);
  return HpFixed<N, K>(blk);
}

/// HP sum of a slice with a runtime format.
[[nodiscard]] HpDyn reduce_hp(std::span<const double> xs, HpConfig cfg);

/// Plain left-to-right double sum (the paper's "double precision" baseline;
/// order-dependent).
[[nodiscard]] double reduce_double(std::span<const double> xs) noexcept;

}  // namespace hpsum
