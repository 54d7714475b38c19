// hp_kernel_chunk — the body of the exponent-indexed chunk deposit
// (kernel::chunk_accumulate, docs/KERNELS.md), templated on how far ahead
// its loop prefetches. hp_kernel.cpp instantiates it once, with
// kChunkPrefetch over the per-thread scratch; bench/ablate_block.cpp
// instantiates the other points of the sweep that justifies that value
// (EXPERIMENTS.md A2c).
//
// Internal header: not installed, not part of the kernel facade.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/hp_kernel.hpp"
#include "trace/trace.hpp"
#include "util/limbs.hpp"

namespace hpsum::kernel::chunk {

/// Chunks in the scratch: one per sign + biased exponent, index bits >> 52.
inline constexpr std::size_t kCount = 4096;
inline constexpr std::size_t kNegative = 0x800;  ///< sign bit of the index

/// Doubles per 64-byte line: the loop issues one prefetch per line.
inline constexpr std::size_t kLine = 8;

/// Folds one sign's chunks c[lo..hi] (biased exponents, all in the fast
/// window) into `plane` and zeroes them. A chunk at lsb position
/// p = be + pbias lands in limb window q = p/64 as a low word (slot n-q,
/// limb n-1-q) and a high word (slot n-1-q, the limb above). The walk
/// goes upward one window at a time, so each slot is written once: the
/// running sum `low` for the window's own slot starts with the high words
/// the window below carried up.
inline void fold(std::uint64_t* c, int lo, int hi, int pbias, U128* plane,
                 int n) noexcept {
  U128 carried = 0;
  int q = (lo + pbias) >> 6;
  for (int be = lo; be <= hi; ++q) {
    const int base = 64 * q - pbias;  // biased exponent at offset 0
    const int end = std::min(hi, base + 63);
    U128 low = carried;
    U128 high = 0;
    for (; be <= end; ++be) {
      const std::uint64_t v = c[be];
      c[be] = 0;
      const int off = be - base;
      low += v << off;
      high += (v >> 1) >> (63 - off);  // two-step shift: off == 0 gives 0
    }
    plane[n - q] += low;
    carried = high;
  }
  // After the top limb's window this is slot 0, the pad, and `carried` is
  // zero there under the budget (block_flush).
  plane[n - q] += carried;
}

/// kernel::chunk_accumulate over an all-zero scratch of kCount chunks,
/// which it leaves all-zero. The loop prefetches the element kAhead places
/// ahead, one prefetch per kLine elements, only while that element is
/// inside the span: no prefetch address leaves the span, and a span no
/// longer than kAhead issues none. kAhead == 0 turns prefetching off.
template <std::size_t kAhead>
HpStatus deposit(std::uint64_t* scratch, util::Limb* a, U128* pos, U128* neg,
                 int n, int k, int& bound_exp, int& pending,
                 std::span<const double> xs) noexcept {
  static_assert(kAhead % kLine == 0, "prefetch distance is in whole lines");
  const Window w = window(n, k);
  HpStatus st = HpStatus::kOk;
  int bound = bound_exp;
  int pend = pending;
  std::uint64_t chunked = 0;
  // Elements before `prefetch_end` may prefetch kAhead ahead: their
  // target is still inside the span.
  const std::size_t prefetch_end =
      kAhead != 0 && xs.size() > kAhead ? xs.size() - kAhead : 0;
  for (std::size_t i = 0; i < xs.size(); i += kChunkBlock) {
    const std::size_t len = std::min(xs.size() - i, kChunkBlock);
    const double* x = xs.data() + i;
    int lo = 0x7FF;
    int hi = 0;
    const auto add = [&](std::size_t j) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x[j]);
      const std::uint64_t idx = bits >> 52;
      scratch[idx] += (bits & kMask52) | kBit52;
      const int be = static_cast<int>(idx & 0x7FF);
      lo = std::min(lo, be);
      hi = std::max(hi, be);
    };
    std::size_t j = 0;
    if constexpr (kAhead != 0) {
      const std::size_t ahead =
          prefetch_end > i ? std::min(len, prefetch_end - i) : 0;
      for (; j + kLine <= ahead; j += kLine) {
        __builtin_prefetch(x + j + kAhead);
        for (std::size_t u = 0; u < kLine; ++u) add(j + u);
      }
    }
    for (; j < len; ++j) add(j);
    // The exact gate: every summand fast (so msb+1 = p+53 and no flags),
    // and the element-wise loop's state after the whole block in budget.
    // Both window ends are tested: in the widest formats the budget alone
    // would admit a NaN's or an infinity's exponent.
    const int nb = std::max(bound, hi + w.pbias + 53);
    const int np = pend + static_cast<int>(len);
    if (lo >= w.be_lo && hi <= w.be_hi && block_budget_ok(n, nb, np))
        [[likely]] {
      fold(scratch, lo, hi, w.pbias, pos, n);
      fold(scratch + kNegative, lo, hi, w.pbias, neg, n);
      bound = nb;
      pend = np;
      chunked += len;
    } else {
      // Rollback: the chunks were zero at block start, so zeroing the
      // touched range restores them exactly; then the element-wise loop
      // replays the block, flushing and falling back on the element it
      // always would.
      std::fill(scratch + lo, scratch + hi + 1, std::uint64_t{0});
      std::fill(scratch + kNegative + lo, scratch + kNegative + hi + 1,
                std::uint64_t{0});
      for (std::size_t e = 0; e < len; ++e) {
        st |= block_add(a, pos, neg, n, k, bound, pend, x[e]);
      }
    }
  }
  // Telemetry once per span, like the SIMD counters. (Replayed elements
  // were counted by block_add itself.)
  if (chunked != 0) {
    trace::count(trace::Counter::kBlockChunkDeposits, chunked);
    trace::count(trace::Counter::kBlockDeposits, chunked);
  }
  bound_exp = bound;
  pending = pend;
  return st;
}

}  // namespace hpsum::kernel::chunk
