// hp_kernel_simd_deposit — the ISA-independent half of the vectorized block
// deposit: the per-batch fast-lane gate (over kernel::window, which the
// chunk deposit shares), the exact budget check, and the plane scatter.
// hp_kernel_simd_avx2.cpp provides only the lane
// decomposer (-mavx2 intrinsics); everything that decides WHETHER a batch
// may be vector-deposited — and therefore everything the bit-identity
// argument rests on — lives here, apart from the ISA-specific code.
//
// Internal header: included only by hp_kernel_simd_avx2.cpp. Not
// installed, not part of the kernel facade.
#pragma once

#include <cstdint>
#include <span>

#include "core/hp_kernel.hpp"
#include "core/hp_kernel_simd.hpp"
#include "trace/trace.hpp"
#include "util/limbs.hpp"

namespace hpsum::kernel::simd::detail {

/// One decomposed batch of kWidth lanes. Each lane's two limb words are
/// stored once, unsigned; `neg` says which plane a lane goes to, so the
/// per-lane path of accumulate_batches selects pos or neg once per lane
/// and writes two slots. The decomposer fills every field unconditionally
/// (slow lanes hold garbage); `all_fast` is the only field that says
/// whether the rest may be trusted, except `pmax`, which is exact whenever
/// all_fast is true and otherwise merely small (|pmax| <= 2123), so
/// arithmetic on it never overflows.
struct LaneBatch {
  std::uint64_t lo[kWidth];  ///< limb-li word of each lane
  std::uint64_t hi[kWidth];  ///< straddle word for limb li-1
  std::uint64_t lq[kWidth];  ///< p >> 6: the lsb's limb offset from the bottom
  /// Batch-level plane deltas, filled ONLY when all_fast && uniform:
  /// sum_lo[s] = sum of the lo words of sign s (0 positive, 1 negative),
  /// sum_hi[s] likewise for the straddle words — exactly what the scalar
  /// loop would add to slots li+1 and li, pre-summed (a kWidth-term sum of
  /// 64-bit words sits far below the U128 ceiling). The decomposer
  /// computes these in the vector domain, with the sign split kept in
  /// registers, so accumulate_batches never re-walks the lanes in the hot
  /// case.
  U128 sum_lo[2];
  U128 sum_hi[2];
  int pmax = 0;               ///< max over lanes of the lsb position p
  unsigned neg = 0;           ///< bit j set iff lane j is negative
  bool all_fast = false;      ///< every lane normal, in-window, untruncated
  bool uniform = false;       ///< all lanes share lq[0] (one target limb pair)
};

/// The batched accumulate driver. Bit-identity with the scalar per-element
/// kernel::block_add loop (limbs AND sticky status) holds because:
///
///   1. Only all-fast batches are vector-deposited, and a fast deposit
///      raises no flags, so batching cannot reorder or drop status.
///   2. The gate is exact. A fast lane has msb+1 = p+53, so after the same
///      kWidth elements the scalar loop would hold bound
///      max(bound, pmax+53) and pending pend+kWidth, and it would have
///      deferred every one of them iff kernel::block_budget_ok accepts that
///      final state (the budget is monotone in both arguments, so the last
///      element is the tightest). The gate tests exactly that, so SIMD and
///      scalar defer and flush at the same points and reach the same
///      bound/pending. The fold below hands each plane slot exactly the
///      words the scalar loop would, just pre-summed in a register, so the
///      plane contents (not merely their totals) are identical too.
///   3. A batch that fails the gate is punted WHOLE, element-wise, in
///      stream order through kernel::block_add, which is the scalar loop
///      itself: its flush + scatter fallback fires on the same element.
///   4. Deferral stays within kernel::block_budget_ok, which is the
///      flush-exactness invariant documented at kernel::block_flush.
template <class DecomposeFn>
[[nodiscard]] inline HpStatus accumulate_batches(
    util::Limb* a, U128* pos, U128* neg, int n, int k, int& bound_exp,
    int& pending, std::span<const double> xs,
    DecomposeFn&& decompose) noexcept {
  HpStatus st = HpStatus::kOk;
  int bound = bound_exp;
  int pend = pending;
  const Window w = window(n, k);
  const double* x = xs.data();
  const std::size_t size = xs.size();
  std::uint64_t batches = 0;
  std::uint64_t punts = 0;
  std::size_t i = 0;
  for (const std::size_t nfull = size - size % kWidth; i < nfull;
       i += kWidth) {
    LaneBatch b;
    decompose(x + i, w, b);
    if (b.all_fast) [[likely]] {
      const int nb = bound > b.pmax + 53 ? bound : b.pmax + 53;
      if (kernel::block_budget_ok(n, nb, pend + kWidth)) [[likely]] {
        ++batches;
        if (b.uniform) [[likely]] {
          // One target limb pair: the decomposer already folded the batch
          // into four plane deltas, so the planes are touched only four
          // times, instead of paying kWidth dependent read-modify-writes
          // on the same slots.
          const int li = n - 1 - static_cast<int>(b.lq[0]);
          pos[li + 1] += b.sum_lo[0];
          pos[li] += b.sum_hi[0];
          neg[li + 1] += b.sum_lo[1];
          neg[li] += b.sum_hi[1];
        } else {
          // Lanes straddle a limb boundary: deposit per lane, one plane
          // (picked by the lane's sign) and two slots per lane.
          for (int j = 0; j < kWidth; ++j) {
            U128* plane = ((b.neg >> j) & 1u) != 0 ? neg : pos;
            const int li = n - 1 - static_cast<int>(b.lq[j]);
            plane[li + 1] += b.lo[j];
            plane[li] += b.hi[j];
          }
        }
        bound = nb;
        pend += kWidth;
        continue;
      }
    }
    // Slow lane or a spent budget: the whole batch takes the scalar
    // kernel, in stream order, so flush points and status flags keep the
    // scalar path's exact semantics.
    ++punts;
    for (int j = 0; j < kWidth; ++j) {
      st |= kernel::block_add(a, pos, neg, n, k, bound, pend, x[i + j]);
    }
  }
  for (; i < size; ++i) {
    st |= kernel::block_add(a, pos, neg, n, k, bound, pend, x[i]);
  }
  // Telemetry once per span, not per batch: the batch loop must not pay a
  // TLS shard RMW every kWidth summands. (Punted elements were counted by
  // block_add itself; these are the vector-path totals.)
  if (batches != 0) {
    trace::count(trace::Counter::kBlockSimdBatches, batches);
    trace::count(trace::Counter::kBlockSimdDeposits,
                 batches * static_cast<std::uint64_t>(kWidth));
    trace::count(trace::Counter::kBlockDeposits,
                 batches * static_cast<std::uint64_t>(kWidth));
  }
  if (punts != 0) {
    trace::count(trace::Counter::kBlockSimdPunts, punts);
  }
  bound_exp = bound;
  pending = pend;
  return st;
}

}  // namespace hpsum::kernel::simd::detail
