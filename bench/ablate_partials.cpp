// Ablation A6: atomic contention vs number of shared partial sums.
//
// The paper's Fig 7 kernel funnels all threads into 256 shared partials and
// names that contention as the throughput limiter — while noting HP suffers
// slightly LESS than double because three threads can hold locks on
// different limbs of one HP partial simultaneously. This bench sweeps the
// partial count from 1 (maximum contention) to 4096 (none) at a fixed
// thread count and reports modeled time and observed CAS retries for
// double vs HP(6,3).
//
// Flags: --n (default 512k), --threads (default 4096), --seed.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/reduce.hpp"
#include "cudasim/cudasim.hpp"
#include "cudasim/hp_kernels.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

struct Point {
  double modeled = 0;
  std::uint64_t retries = 0;
  bool correct = false;
};

Point run_double(cudasim::Device& dev, const double* data, std::size_t n,
                 int threads, int partials_count, double ref) {
  auto* partials =
      static_cast<double*>(dev.dmalloc(partials_count * sizeof(double)));
  const auto stats =
      dev.launch(threads / 256, 256, [&](const cudasim::ThreadCtx& ctx) {
        const int tid = ctx.global_id();
        double* slot = &partials[tid % partials_count];
        for (std::size_t i = static_cast<std::size_t>(tid); i < n;
             i += static_cast<std::size_t>(threads)) {
          dev.atomic_add_f64(slot, data[i]);
        }
      });
  double total = 0;
  for (int p = 0; p < partials_count; ++p) total += partials[p];
  dev.dfree(partials);
  // Double result depends on partial boundaries; "correct" here means
  // within a loose tolerance of the HP-exact answer.
  return {stats.modeled_kernel_time, stats.cas_retries,
          std::abs(total - ref) < 1e-6};
}

Point run_hp(cudasim::Device& dev, const double* data, std::size_t n,
             int threads, int partials_count, double ref) {
  constexpr int kLimbs = 6;
  auto* partials = static_cast<std::uint64_t*>(
      dev.dmalloc(partials_count * kLimbs * sizeof(std::uint64_t)));
  const auto stats =
      dev.launch(threads / 256, 256, [&](const cudasim::ThreadCtx& ctx) {
        const int tid = ctx.global_id();
        std::uint64_t* slot = &partials[(tid % partials_count) * kLimbs];
        for (std::size_t i = static_cast<std::size_t>(tid); i < n;
             i += static_cast<std::size_t>(threads)) {
          const HpFixed<6, 3> v(data[i]);
          // Timing harness; the finite uniform workload cannot overflow.
          (void)cudasim::device_hp_atomic_add(dev, slot, v);
        }
      });
  HpFixed<6, 3> total;
  for (int p = 0; p < partials_count; ++p) {
    HpFixed<6, 3> part;
    std::memcpy(part.limbs().data(), &partials[p * kLimbs],
                kLimbs * sizeof(std::uint64_t));
    total += part;
  }
  dev.dfree(partials);
  return {stats.modeled_kernel_time, stats.cas_retries,
          total.to_double() == ref};
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, {"n", "threads", "seed", "csv", bench::kMetricsFlag, bench::kFlightFlag});
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 512 * 1024, 8 * 1024 * 1024);
  const auto threads = static_cast<int>(args.get_int("threads", 4096));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 14));

  bench::banner("Ablation A6: shared-partial count vs atomic contention",
                "Fig 7 discussion: 256 shared partials are 'a point of "
                "contention that serves to limit throughput'");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);
  cudasim::Device dev;
  auto* data = static_cast<double*>(dev.dmalloc(xs.size() * sizeof(double)));
  dev.memcpy_h2d(data, xs.data(), xs.size() * sizeof(double));
  const double ref = reduce_hp<6, 3>(xs).to_double();

  util::TablePrinter table({"partials", "t_double", "retries_d", "t_HP",
                            "retries_HP", "HP exact"});
  for (const int partials : {1, 4, 16, 64, 256, 1024, 4096}) {
    const auto d = run_double(dev, data, xs.size(), threads, partials, ref);
    const auto h = run_hp(dev, data, xs.size(), threads, partials, ref);
    table.begin_row();
    table.add_int(partials);
    table.add_num(d.modeled, 4);
    table.add_int(static_cast<std::int64_t>(d.retries));
    table.add_num(h.modeled, 4);
    table.add_int(static_cast<std::int64_t>(h.retries));
    table.add_cell(h.correct ? "yes" : "NO");
  }
  bench::emit_table(table, args);
  std::printf(
      "\nreading: on a multi-core host retries fall as partials grow, and "
      "HP's spread over N=6 independent limb words (the paper's 'three "
      "threads may lock an HP partial sum simultaneously' effect). When "
      "the workers rarely overlap (fewer cores than workers, or a run too "
      "short to contend), retries stay near zero at every partial count — "
      "what remains observable is that correctness never depends on the "
      "partial count.\n");
  dev.dfree(data);
  return bench::finish(args);
}
