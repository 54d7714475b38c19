#include "core/hp_kernel.hpp"

#include <cassert>

#include "core/hp_kernel_chunk.hpp"

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

/// The per-thread chunk scratch. All-zero between blocks: the fold and the
/// rollback zero every chunk a block touched. One scratch per thread is
/// enough even under the mpisim fibers, which share a worker thread: a
/// fiber yields only while blocked in a receive or barrier, and
/// chunk_accumulate never yields, so no two blocks ever interleave on one
/// scratch.
thread_local std::uint64_t t_chunks[chunk::kCount] = {};

}  // namespace

HpStatus chunk_accumulate(util::Limb* a, U128* pos, U128* neg, int n, int k,
                          int& bound_exp, int& pending,
                          std::span<const double> xs) noexcept {
  return chunk::deposit<kChunkPrefetch>(t_chunks, a, pos, neg, n, k,
                                        bound_exp, pending, xs);
}

}  // namespace kernel

}  // namespace hpsum
