// hp_kernel_simd_deposit — the ISA-independent half of the vectorized block
// deposit: the per-batch fast-lane gate, the conservative bound update, and
// the plane scatter. hp_kernel_simd_avx2.cpp provides only the lane
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

inline constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
inline constexpr std::uint64_t kBit52 = std::uint64_t{1} << 52;

/// One decomposed batch of kWidth lanes, already sign-split: a positive
/// lane has its limb words in lop/hip and zeros in lon/hin, a negative
/// lane the reverse — so the driver's fold never branches or indexes on
/// the sign, it just sums four independent streams. The decomposer fills
/// every array unconditionally (slow lanes hold garbage); `all_fast` is
/// the only field that says whether the rest may be trusted, except
/// `pmax`, which is exact whenever all_fast is true and otherwise merely
/// small (|pmax| <= 2123), so arithmetic on it never overflows.
struct LaneBatch {
  std::uint64_t lop[kWidth];  ///< limb-li word, positive lanes (else 0)
  std::uint64_t lon[kWidth];  ///< limb-li word, negative lanes (else 0)
  std::uint64_t hip[kWidth];  ///< straddle word for limb li-1, positive
  std::uint64_t hin[kWidth];  ///< straddle word for limb li-1, negative
  std::uint64_t lq[kWidth];   ///< p >> 6: the lsb's limb offset from the bottom
  /// Batch-level plane deltas, filled ONLY when all_fast && uniform:
  /// sum_lo[s] = sum of the lo words of sign s (0 positive, 1 negative),
  /// sum_hi[s] likewise for the straddle words — exactly what the scalar
  /// loop would add to slots li+1 and li, pre-summed (a kWidth-term sum of
  /// 64-bit words sits far below the U128 ceiling). The decomposer
  /// computes these in the vector domain, so the driver never re-walks the
  /// lanes in the hot case.
  U128 sum_lo[2];
  U128 sum_hi[2];
  int pmax = 0;               ///< max over lanes of the lsb position p
  bool all_fast = false;      ///< every lane normal, in-window, untruncated
  bool uniform = false;       ///< all lanes share lq[0] (one target limb pair)
};

/// The fast-lane window for an (n,k) format, in biased-exponent terms. A
/// lane is FAST iff be_lo <= biased_exp <= be_hi, which is exactly:
///   - normal and finite (be >= 1, be <= 0x7FE),
///   - whole mantissa at or above 2^(-64k): p = be-1075+64k >= 0, so the
///     deposit is exact (no kInexact truncation), and
///   - msb = p+52 <= 64n-2, below the sign bit (no kConvertOverflow).
/// A fast deposit raises no status flags, touches exactly limbs li/li-1,
/// and has msb = p+52 with the implicit leading bit — the three facts the
/// batched path needs. Everything else (zeros, subnormals, non-finite,
/// out-of-range, sub-lsb truncation) punts to the scalar kernel.
struct Window {
  int be_lo;
  int be_hi;
  int pbias;  ///< 64k - 1075: biased exponent -> signed lsb position p
};

[[nodiscard]] constexpr Window window(int n, int k) noexcept {
  Window w{};
  w.be_lo = 1075 - 64 * k;
  if (w.be_lo < 1) w.be_lo = 1;
  w.be_hi = 64 * (n - k) + 1021;
  if (w.be_hi > 0x7FE) w.be_hi = 0x7FE;
  w.pbias = 64 * k - 1075;
  return w;
}

/// The batched accumulate driver. Bit-identity with the scalar per-element
/// kernel::block_add loop (limbs AND sticky status) holds because:
///
///   1. Only all-fast batches are vector-deposited, and a fast deposit
///      raises no flags, so batching cannot reorder or drop status.
///   2. The batch bound nb = max(bound, pmax+53) + kWidth dominates the
///      scalar recurrence b' = max(b, msb+1)+1 applied to the same kWidth
///      elements (induction: after i elements the scalar bound is at most
///      max(b0, pmax+53) + i), so if nb fits under 64n-1 every scalar
///      intermediate bound fits too — the scalar path would not have
///      flushed inside this batch, and its deposits commute in the planes:
///      the fold below hands each plane slot exactly the words the scalar
///      loop would, just pre-summed in a register, so the plane contents
///      (not merely their totals) are identical.
///   3. A batch that fails the gate is punted WHOLE, element-wise, in
///      stream order through kernel::block_add, whose flush + scatter
///      fallback is bit-identical by construction. The conservative bound
///      can only make that fallback fire EARLIER than the scalar path —
///      on the same exact partial sum, hence the same limbs and flags.
///   4. The bound grows by kWidth per kWidth deferred deposits (>= 1 per
///      deposit, same as scalar), preserving the pending <= 64n-1 flush
///      exactness invariant documented at kernel::block_flush.
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
      const int nb = (bound > b.pmax + 53 ? bound : b.pmax + 53) + kWidth;
      if (nb <= 64 * n - 1) [[likely]] {
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
          // Lanes straddle a limb boundary: deposit per lane. The
          // sign-split arrays make this branch-free — one side of each
          // pair is zero, and adding zero to a plane slot is a no-op on
          // the plane's total.
          for (int j = 0; j < kWidth; ++j) {
            const int li = n - 1 - static_cast<int>(b.lq[j]);
            pos[li + 1] += b.lop[j];
            pos[li] += b.hip[j];
            neg[li + 1] += b.lon[j];
            neg[li] += b.hin[j];
          }
        }
        bound = nb;
        pend += kWidth;
        continue;
      }
    }
    // Slow lane or bound pressure: the whole batch takes the scalar kernel,
    // in stream order, so flush points and status flags keep the scalar
    // path's exact semantics.
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
