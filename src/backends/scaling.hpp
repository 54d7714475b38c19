// Strong-scaling drivers and the modeled-time report.
//
// The paper's Figs 5-8 measure wallclock of a p-PE global reduction on real
// multi-core/accelerator hardware. A measured wallclock with p threads is
// real only up to the host's core count; past it the threads serialize.
// So (DESIGN.md §2) every PE also measures its own CPU busy time; the
// driver reports
//
//   modeled_wall(p) = max_p busy_p + merge_time
//
// — the critical path a machine with >= p cores would see — alongside the
// honest measured wallclock. Efficiency in the figure reproductions is
// computed from modeled_wall.
#pragma once

#include <span>
#include <thread>
#include <vector>

#include <omp.h>

#include "engine/engine.hpp"
#include "trace/flight.hpp"
#include "util/omp_fence.hpp"
#include "util/timer.hpp"

namespace hpsum::backends {

/// One strong-scaling data point.
struct ScalingPoint {
  int pes = 1;               ///< processing elements (threads/ranks)
  double value = 0.0;        ///< the reduction result
  double measured_wall = 0;  ///< actual wallclock on this host (s)
  double modeled_wall = 0;   ///< max per-PE busy + merge (s); see above
  double busy_max = 0;       ///< slowest PE's busy time (s)
  double busy_total = 0;     ///< total CPU work across PEs (s)
  double merge_time = 0;     ///< master's partial-sum combine time (s)
};

/// Parallel efficiency of `p` relative to the 1-PE point:
/// E(p) = T(1) / (p * T(p)), on modeled time.
[[nodiscard]] inline double efficiency(const ScalingPoint& p1,
                                       const ScalingPoint& pp) noexcept {
  if (pp.modeled_wall <= 0.0 || pp.pes <= 0) return 0.0;
  return p1.modeled_wall / (static_cast<double>(pp.pes) * pp.modeled_wall);
}

/// Splits `xs` into `p` contiguous, maximally balanced slices.
[[nodiscard]] std::vector<std::span<const double>> partition(
    std::span<const double> xs, int p);

/// std::thread strong-scaling reduction: each of `pes` threads deposits
/// its slice into an engine shard, the caller thread drains the set.
/// This is the driver for the mpisim-style and generic figures. Routing
/// through engine::ShardSet keeps the historical semantics: lane t holds
/// thread t's partial and drain merges lanes in order, bit-identical limbs
/// and status to the old explicit partials vector. The set is local to
/// this call, so nothing snapshots it while the threads run.
template <class Acc>
[[nodiscard]] ScalingPoint run_threads(std::span<const double> xs, int pes) {
  const trace::flight::ReductionScope reduction(xs.size());
  const std::uint64_t rid = reduction.id();
  const auto slices = partition(xs, pes);
  engine::ShardSet<Acc> sink(static_cast<std::size_t>(pes));
  std::vector<double> busy(static_cast<std::size_t>(pes), 0.0);

  util::WallTimer wall;
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(pes));
    for (int t = 0; t < pes; ++t) {
      threads.emplace_back([&, t] {
        trace::flight::set_track("backend", 0, t);
        const trace::flight::Span busy_span(
            trace::flight::EventId::kPeBusy, rid,
            slices[static_cast<std::size_t>(t)].size());
        util::ThreadCpuTimer cpu;
        sink.shard(static_cast<std::size_t>(t))
            .deposit(slices[static_cast<std::size_t>(t)]);
        busy[static_cast<std::size_t>(t)] = cpu.seconds();
      });
    }
  }  // jthreads join

  util::ThreadCpuTimer merge_cpu;
  Acc total;
  {
    const trace::flight::Span merge_span(trace::flight::EventId::kMerge, rid,
                                  static_cast<std::size_t>(pes));
    total = sink.drain();
  }
  const double merge_time = merge_cpu.seconds();

  ScalingPoint out;
  out.pes = pes;
  out.value = total.result();
  out.measured_wall = wall.seconds();
  out.merge_time = merge_time;
  for (const double b : busy) {
    out.busy_max = b > out.busy_max ? b : out.busy_max;
    out.busy_total += b;  // hplint: allow(fp-accumulate) — wallclock stats, not summands
  }
  out.modeled_wall = out.busy_max + merge_time;
  return out;
}

/// OpenMP strong-scaling reduction (the paper's Fig 5 environment): a
/// `#pragma omp parallel` team of `pes` threads computes per-thread
/// partials; the master reduces them.
template <class Acc>
[[nodiscard]] ScalingPoint run_openmp(std::span<const double> xs, int pes) {
  const trace::flight::ReductionScope reduction(xs.size());
  const std::uint64_t rid = reduction.id();
  const auto slices = partition(xs, pes);
  engine::ShardSet<Acc> sink(static_cast<std::size_t>(pes));
  std::vector<double> busy(static_cast<std::size_t>(pes), 0.0);

  util::WallTimer wall;
  util::OmpRegionFence fence;
  int team = pes;  // written only by the master (thread 0 of the team)
#pragma omp parallel num_threads(pes)
  {
    const int t = omp_get_thread_num();
    if (t == 0) team = omp_get_num_threads();
    {
      trace::flight::set_track("omp", 0, t);
      const trace::flight::Span busy_span(trace::flight::EventId::kPeBusy, rid,
                                   slices[static_cast<std::size_t>(t)].size());
      util::ThreadCpuTimer cpu;
      sink.shard(static_cast<std::size_t>(t))
          .deposit(slices[static_cast<std::size_t>(t)]);
      busy[static_cast<std::size_t>(t)] = cpu.seconds();
    }
    // Last statement of the region: publish this thread's slice reads and
    // shard/busy writes to the master's post-region merge (libgomp's own
    // end-of-region barrier is not TSan-instrumented; see omp_fence.hpp).
    fence.arrive();
  }
  fence.wait(team);

  util::ThreadCpuTimer merge_cpu;
  Acc total;
  {
    const trace::flight::Span merge_span(trace::flight::EventId::kMerge, rid,
                                  static_cast<std::size_t>(pes));
    total = sink.drain();
  }
  const double merge_time = merge_cpu.seconds();

  ScalingPoint out;
  out.pes = pes;
  out.value = total.result();
  out.measured_wall = wall.seconds();
  out.merge_time = merge_time;
  for (const double b : busy) {
    out.busy_max = b > out.busy_max ? b : out.busy_max;
    out.busy_total += b;  // hplint: allow(fp-accumulate) — wallclock stats, not summands
  }
  out.modeled_wall = out.busy_max + merge_time;
  return out;
}

}  // namespace hpsum::backends
