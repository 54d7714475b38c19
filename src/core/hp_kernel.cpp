#include "core/hp_kernel.hpp"

#include <algorithm>
#include <cassert>

namespace hpsum {

HpStatus hp_add(util::LimbSpan a, util::ConstLimbSpan b) noexcept {
  assert(a.size() == b.size());
  return detail::add_impl(a.data(), b.data(), static_cast<int>(a.size()));
}

HpStatus hp_scatter_add(util::LimbSpan limbs, const HpConfig& cfg,
                        double r) noexcept {
  assert(limbs.size() == static_cast<std::size_t>(cfg.n));
  return detail::scatter_add_double(limbs.data(), cfg.n, cfg.k, r);
}

namespace kernel {

namespace {

/// One 64-bit chunk per sign + biased exponent: index bits >> 52.
constexpr std::size_t kChunkCount = 4096;
constexpr std::size_t kNegChunks = 0x800;  ///< sign bit of the chunk index

/// The per-thread chunk scratch. All-zero between blocks: the fold and the
/// rollback zero every chunk a block touched. One scratch per thread is
/// enough even under the mpisim fibers, which share a worker thread: a
/// fiber yields only while blocked in a receive or barrier, and
/// chunk_accumulate never yields, so no two blocks ever interleave on one
/// scratch.
thread_local std::uint64_t t_chunks[kChunkCount] = {};

/// Folds one sign's chunks c[lo..hi] (biased exponents, all in the fast
/// window) into `plane` and zeroes them. A chunk at lsb position
/// p = be + pbias lands in limb window q = p/64 as a low word (slot n-q,
/// limb n-1-q) and a high word (slot n-1-q, the limb above). The walk
/// goes upward one window at a time, so each slot is written once: the
/// running sum `low` for the window's own slot starts with the high words
/// the window below carried up.
void fold_chunks(std::uint64_t* c, int lo, int hi, int pbias, U128* plane,
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

}  // namespace

HpStatus chunk_accumulate(util::Limb* a, U128* pos, U128* neg, int n, int k,
                          int& bound_exp, int& pending,
                          std::span<const double> xs) noexcept {
  std::uint64_t* const c = t_chunks;
  const Window w = window(n, k);
  HpStatus st = HpStatus::kOk;
  int bound = bound_exp;
  int pend = pending;
  std::uint64_t chunked = 0;
  for (std::size_t i = 0; i < xs.size(); i += kChunkBlock) {
    const std::size_t len = std::min(xs.size() - i, kChunkBlock);
    const double* x = xs.data() + i;
    int lo = 0x7FF;
    int hi = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x[j]);
      const std::uint64_t idx = bits >> 52;
      c[idx] += (bits & kMask52) | kBit52;
      const int be = static_cast<int>(idx & 0x7FF);
      lo = std::min(lo, be);
      hi = std::max(hi, be);
    }
    // The exact gate: every summand fast (so msb+1 = p+53 and no flags),
    // and the element-wise loop's state after the whole block in budget.
    // Both window ends are tested: in the widest formats the budget alone
    // would admit a NaN's or an infinity's exponent.
    const int nb = std::max(bound, hi + w.pbias + 53);
    const int np = pend + static_cast<int>(len);
    if (lo >= w.be_lo && hi <= w.be_hi && block_budget_ok(n, nb, np))
        [[likely]] {
      fold_chunks(c, lo, hi, w.pbias, pos, n);
      fold_chunks(c + kNegChunks, lo, hi, w.pbias, neg, n);
      bound = nb;
      pend = np;
      chunked += len;
    } else {
      // Rollback: the chunks were zero at block start, so zeroing the
      // touched range restores them exactly; then the element-wise loop
      // replays the block, flushing and falling back on the element it
      // always would.
      std::fill(c + lo, c + hi + 1, std::uint64_t{0});
      std::fill(c + kNegChunks + lo, c + kNegChunks + hi + 1,
                std::uint64_t{0});
      for (std::size_t j = 0; j < len; ++j) {
        st |= block_add(a, pos, neg, n, k, bound, pend, x[j]);
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

}  // namespace kernel

}  // namespace hpsum
