// rblas — reproducible BLAS-style reductions (library extension).
//
// The paper's closing argument is that global reductions of huge floating-
// point sets are becoming the norm and need reproducibility. The BLAS
// reductions are exactly such sums, so this module composes the HP method
// into the classic kernels: results are the mathematically exact reduction
// rounded once, hence bit-identical for any element order, blocking, or
// thread count (compare ReproBLAS/ExBLAS, which pursue the same contract
// with superaccumulators).
//
// All kernels take a compile-time format (hot path) with the paper's
// HP(8,4) as a wide default, and have OpenMP-parallel variants whose
// results are bit-identical to the sequential ones — that is the point.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "backends/accumulators.hpp"
#include "core/dot.hpp"
#include "core/hp_fixed.hpp"
#include "core/reduce.hpp"
#include "engine/engine.hpp"
#include "util/omp_fence.hpp"

namespace hpsum::rblas {

/// Exact sum of all elements, rounded once (reproducible "sum").
template <int N = 8, int K = 4>
[[nodiscard]] double sum(std::span<const double> x) noexcept {
  return reduce_hp<N, K>(x).to_double();
}

/// Exact sum of absolute values (reproducible "asum"). |x| conversion is
/// sign manipulation only, so this is exact whenever sum() is.
template <int N = 8, int K = 4>
[[nodiscard]] double asum(std::span<const double> x) noexcept {
  // |x| deposits go through the carry-deferred block path one at a time;
  // bit-identical to the acc += fabs(v) loop (see core/hp_kernel.hpp).
  BlockAccumulator<N, K> blk;
  for (const double v : x) blk.add(std::fabs(v));
  return HpFixed<N, K>(blk).to_double();
}

/// Exact dot product rounded once (reproducible "dot"); see core/dot.hpp.
template <int N = 8, int K = 4>
[[nodiscard]] double dot(std::span<const double> x,
                         std::span<const double> y) noexcept {
  return dot_hp<N, K>(x, y).to_double();
}

/// Euclidean norm as sqrt of the EXACT sum of squares (reproducible
/// "nrm2"): two roundings total (to double, then sqrt), both deterministic.
/// Squares of doubles span ~2^±2044; size the format for your data or use
/// the default wide one.
template <int N = 8, int K = 4>
[[nodiscard]] double nrm2(std::span<const double> x) noexcept {
  return std::sqrt(dot_hp<N, K>(x, x).to_double());
}

/// Reproducible "gemv" (y = A x, row-major m x n): each y_i is an exact
/// dot product, so the whole result vector is order-invariant elementwise.
/// Parallelized over rows with OpenMP; bit-identical for any thread count.
template <int N = 8, int K = 4>
void gemv(std::size_t m, std::size_t n, std::span<const double> a,
          std::span<const double> x, std::span<double> y);

/// OpenMP-parallel exact sum: per-thread HP partials merged in thread-id
/// order. Bit-identical to sum() for every thread count.
template <int N = 8, int K = 4>
[[nodiscard]] double sum_parallel(std::span<const double> x, int threads);

// Runtime-format variants (for formats chosen from data at runtime).
[[nodiscard]] double sum(std::span<const double> x, HpConfig cfg);
[[nodiscard]] double asum(std::span<const double> x, HpConfig cfg);
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y,
                         HpConfig cfg);
[[nodiscard]] double nrm2(std::span<const double> x, HpConfig cfg);

}  // namespace hpsum::rblas

// ---- template definitions -------------------------------------------------

namespace hpsum::rblas {

template <int N, int K>
void gemv(std::size_t m, std::size_t n, std::span<const double> a,
          std::span<const double> x, std::span<double> y) {
  // Split `parallel for` so the region body can end with fence.arrive():
  // libgomp's end-of-region barrier orders the workers' y[i] writes before
  // the caller's reads, but is invisible to TSan (see util/omp_fence.hpp).
  util::OmpRegionFence fence;
  int team = 1;
#pragma omp parallel
  {
    if (omp_get_thread_num() == 0) team = omp_get_num_threads();
#pragma omp for schedule(static)
    for (std::size_t i = 0; i < m; ++i) {
      y[i] = dot_hp<N, K>(a.subspan(i * n, n), x.first(n)).to_double();
    }
    fence.arrive();
  }
  fence.wait(team);
}

template <int N, int K>
double sum_parallel(std::span<const double> x, int threads) {
  // Thread t's slice lands in engine lane t; drain() merges lanes in
  // thread-id order — the same partial/merge sequence as the historical
  // explicit partials vector, so the result stays bit-identical to sum().
  // The set is local to this call; nothing snapshots it mid-run.
  engine::ShardSet<backends::HpSum<N, K>> sink(
      static_cast<std::size_t>(threads));
  util::OmpRegionFence fence;
  int team = threads;
#pragma omp parallel num_threads(threads)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    if (t == 0) team = omp_get_num_threads();
    const auto p = static_cast<std::size_t>(threads);
    // Contiguous slices, like backends::partition.
    const std::size_t base = x.size() / p;
    const std::size_t extra = x.size() % p;
    const std::size_t begin = t * base + std::min(t, extra);
    const std::size_t len = base + (t < extra ? 1 : 0);
    sink.shard(t).deposit(x.subspan(begin, len));
    // TSan-visible edge from the shard-lane write to the drain below.
    fence.arrive();
  }
  fence.wait(team);
  return sink.drain().result();
}

}  // namespace hpsum::rblas
