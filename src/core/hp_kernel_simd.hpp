// hp_kernel_simd — the vectorized batch-deposit path over the block planes.
//
// kernel::block_accumulate (core/hp_kernel.hpp) is the facade every span
// consumer routes through (HpFixed/HpDyn::accumulate, reduce_hp, the
// backends' whole-slice accumulators, rblas, the mpisim op). At runtime it
// sends spans to the exponent-indexed chunk deposit, and spans or span
// tails shorter than kernel::kChunkMinSpan here: a batch of kWidth doubles
// is decomposed in vector lanes (exponent extract, mantissa split, sign
// mask) and deposited into the positive/negative carry-save planes,
// instead of paying the scalar decompose's branch tree once per summand.
//
// Levels (-DHPSUM_SIMD=AUTO|OFF at configure time, then the CPU):
//
//   AVX2 — x86 intrinsics (hp_kernel_simd_avx2.cpp, compiled -mavx2).
//          AUTO builds that TU when the compiler supports -mavx2 and pick
//          it at runtime iff the CPU reports AVX2.
//   OFF  — accumulate() is the pure-scalar block_add loop: on
//          HPSUM_SIMD=OFF builds, and on AUTO builds running on a CPU
//          without AVX2. hp_kernel_simd.cpp still builds so active_level()
//          stays linkable (it reports kOff).
//
// Bit-identity argument (docs/KERNELS.md has the long form): a batch is
// vector-deposited only when every lane is a NORMAL double whose mantissa
// lands fully inside the limb array (no truncation below 2^-64k, msb at
// most 64n-2). Such deposits raise no status flags and are deferred into
// the planes, where addition is commutative over Z/2^(64n) — so any
// batching order equals the scalar element-at-a-time order. The batch gate
// applies the scalar deferral budget (kernel::block_budget_ok) to the
// state the scalar loop would reach after the same kWidth elements
// (bound max(bound_exp, max_msb+1), pending + kWidth); the budget is
// monotone, so that test is exact and SIMD defers and flushes where the
// scalar loop does. Any batch containing a slow lane (zero, subnormal,
// non-finite, sub-lsb truncation, near-range) or failing the budget is
// punted whole, in stream order, to the scalar kernel::block_add. Limbs,
// planes, bound, pending AND sticky status therefore match the scalar
// kernel exactly; tests/test_block.cpp fuzzes the equivalence.
#pragma once

#include <span>

#include "core/hp_status.hpp"
#include "util/limbs.hpp"

// Defined PUBLIC (0 or 1) on hpsum_core by src/core/CMakeLists.txt from the
// HPSUM_SIMD configure option, so every target in the build agrees on
// whether the AVX2 path is built. The out-of-build default is the
// conservative scalar path.
#ifndef HPSUM_SIMD_DISPATCH
#define HPSUM_SIMD_DISPATCH 0
#endif

namespace hpsum::kernel::simd {

__extension__ using U128 = unsigned __int128;

/// Lanes per batch. Batches are processed whole: a tail shorter than
/// kWidth (and any batch with a slow lane) takes the scalar deposit.
inline constexpr int kWidth = 8;

/// Which implementation accumulate() dispatches to at runtime.
enum class Level { kOff, kAvx2 };

/// The resolved dispatch level: kAvx2 iff the build has the AVX2 TU and
/// the CPU reports AVX2, else kOff.
[[nodiscard]] Level active_level() noexcept;

/// Stable lowercase name for exports/banners: "off" or "avx2".
[[nodiscard]] const char* level_name(Level level) noexcept;

/// The short-span runtime deposit behind kernel::block_accumulate. Same
/// contract and same state as kernel::block_add driven per element —
/// bit-identical limbs and sticky status — but never usable in constant
/// evaluation (the facade keeps the scalar loop for that).
[[nodiscard]] HpStatus accumulate(util::Limb* a, U128* pos, U128* neg, int n,
                                  int k, int& bound_exp, int& pending,
                                  std::span<const double> xs) noexcept;

}  // namespace hpsum::kernel::simd
