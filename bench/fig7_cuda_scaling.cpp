// Figure 7 reproduction: CUDA-style strong scaling of the 32M global sum —
// all launched threads accumulate into 256 shared partial sums using only
// atomic operations (partial chosen by thread_id % 256), for 256..32K
// threads, double vs HP(6,3) vs Hallberg(10,38).
//
// Paper result (Tesla K20m): HP slows down at most ~5.6x vs double — far
// better than the CPU's 37x because the kernel is memory/atomic bound and
// HP's per-summand traffic is 7 reads + 6 writes vs double's 2 + 1
// (predicting >= 4.3x); Hallberg suffers more (11 reads + 10 writes); all
// methods plateau past 2048 threads (K20m runs at most 2496 concurrent).
// Run on the cudasim device model (DESIGN.md §2), which reproduces the
// atomics for real and the plateau via the occupancy cap.
//
// Flags: --n (default 1M; paper 32M), --seed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/reduce.hpp"
#include "cudasim/cudasim.hpp"
#include "cudasim/hp_kernels.hpp"
#include "cudasim/reduce.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

constexpr int kPartials = 256;

struct Point {
  double modeled = 0;
  std::uint64_t cas_retries = 0;
  double value = 0;
  HpStatus status = HpStatus::kOk;  ///< the HP total's sticky status
};

Point run_double(cudasim::Device& dev, const double* data, std::size_t n,
                 int threads) {
  cudasim::LaunchStats stats;
  Point out;
  out.value = cudasim::reduce_f64_device(dev, data, n, threads / 256, 256,
                                         kPartials, &stats);
  out.modeled = stats.modeled_kernel_time;
  out.cas_retries = stats.cas_retries;
  return out;
}

Point run_hp(cudasim::Device& dev, const double* data, std::size_t n,
             int threads) {
  cudasim::LaunchStats stats;
  const auto total = cudasim::reduce_hp_device<6, 3>(
      dev, data, n, threads / 256, 256, kPartials, &stats);
  Point out;
  out.value = total.to_double();
  out.status = total.status();
  out.modeled = stats.modeled_kernel_time;
  out.cas_retries = stats.cas_retries;
  return out;
}

Point run_hallberg(cudasim::Device& dev, const double* data, std::size_t n,
                   int threads) {
  constexpr int kLimbs = 10;
  auto* partials = static_cast<std::int64_t*>(
      dev.dmalloc(kPartials * kLimbs * sizeof(std::int64_t)));
  const auto stats =
      dev.launch(threads / 256, 256, [&](const cudasim::ThreadCtx& ctx) {
        const int tid = ctx.global_id();
        std::int64_t* slot = &partials[(tid % kPartials) * kLimbs];
        for (std::size_t i = static_cast<std::size_t>(tid); i < n;
             i += static_cast<std::size_t>(threads)) {
          HallbergFixed<10, 38> v;
          v.add(data[i]);
          cudasim::device_hallberg_atomic_add(dev, slot, v);
        }
      });
  Hallberg total(HallbergParams{10, 38});
  std::memcpy(total.limbs().data(), partials,
              kLimbs * sizeof(std::int64_t) * 1);
  // Partials live in one array; fold the remaining 255.
  for (int p = 1; p < kPartials; ++p) {
    Hallberg part(HallbergParams{10, 38});
    std::memcpy(part.limbs().data(), &partials[p * kLimbs],
                kLimbs * sizeof(std::int64_t));
    total.add(part);
  }
  Point out;
  out.value = total.to_double();
  out.modeled = stats.modeled_kernel_time;
  out.cas_retries = stats.cas_retries;
  dev.dfree(partials);
  return out;
}

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 1024 * 1024, 32 * 1024 * 1024);
  const auto maxthreads = static_cast<int>(args.get_int("maxthreads", 32768));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  bench::banner("Fig 7: CUDA-style scaling, 256 atomic partial sums",
                "Fig 7 (§IV.B): 256..32K threads on a K20m-like device, "
                "double vs HP(6,3) vs Hallberg(10,38)");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);
  cudasim::Device dev;
  auto* data = static_cast<double*>(dev.dmalloc(xs.size() * sizeof(double)));
  dev.memcpy_h2d(data, xs.data(), xs.size() * sizeof(double));
  const double hp_seq = reduce_hp<6, 3>(xs).to_double();

  util::TablePrinter table({"threads", "t_double(model)", "t_HP(model)",
                            "t_Hall(model)", "HP/double", "Hall/double",
                            "HP CAS retries"});
  bool hp_invariant = true;
  for (int threads = 256; threads <= maxthreads; threads *= 2) {
    const auto d = run_double(dev, data, xs.size(), threads);
    const auto h = run_hp(dev, data, xs.size(), threads);
    const auto b = run_hallberg(dev, data, xs.size(), threads);
    hp_invariant =
        hp_invariant && h.value == hp_seq && h.status == HpStatus::kOk;
    table.begin_row();
    table.add_int(threads);
    table.add_num(d.modeled, 4);
    table.add_num(h.modeled, 4);
    table.add_num(b.modeled, 4);
    table.add_num(h.modeled / d.modeled, 3);
    table.add_num(b.modeled / d.modeled, 3);
    table.add_int(static_cast<std::int64_t>(h.cas_retries));
  }
  bench::emit_table(table, args);
  std::printf(
      "\nexpected shape: modeled time falls with threads, then plateaus at "
      "2496 concurrent threads;\nHP/double stays within a small factor "
      "(paper <= 5.6x; memory-op model predicts >= 4.3x);\nHallberg/double "
      "is larger (11R+10W vs 7R+6W per summand).\n");
  std::printf("HP sum == sequential HP sum at every thread count: %s\n",
              hp_invariant ? "yes" : "NO");
  std::printf("device transfer (input upload, modeled): %.4f s\n",
              dev.transfer_seconds());
  dev.dfree(data);
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "seed", "maxthreads", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
