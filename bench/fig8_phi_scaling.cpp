// Figure 8 reproduction: Xeon-Phi-style offload scaling of the 32M global
// sum — double vs HP(6,3) vs Hallberg(10,38) for 1..240 device threads.
//
// Paper result (Phi 5110P, offload model): both high-precision methods cost
// much more than double at one thread; the cost amortizes as threads are
// added; at high thread counts runtime is dominated by the host<->device
// transfer for all three methods. Run on the phisim offload model
// (DESIGN.md §2): the input array is physically copied to a device arena
// with a modeled PCIe cost, then reduced by a real thread team.
//
// Flags: --n (default 2M; paper 32M), --seed.
#include <cstdio>
#include <iostream>
#include <vector>

#include "backends/accumulators.hpp"
#include "common.hpp"
#include "phisim/phisim.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 2 * 1024 * 1024, 32 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 8));

  bench::banner("Fig 8: Phi-style offload scaling, 32M global sum",
                "Fig 8 (§IV.B): offload transfer + 1..240 device threads, "
                "double vs HP(6,3) vs Hallberg(10,38)");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);
  phisim::OffloadDevice dev;

  util::TablePrinter table({"threads", "t_double(model)", "t_HP(model)",
                            "t_Hall(model)", "HP transfer-share",
                            "eff_HP"});
  double hp1 = 0;
  double hp_ref = 0;
  bool hp_invariant = true;
  const int thread_points[] = {1, 2, 4, 8, 16, 32, 64, 128, 240};
  for (const int threads : thread_points) {
    const auto d = dev.offload_reduce<backends::DoubleSum>(xs, threads);
    const auto h = dev.offload_reduce<backends::HpSum<6, 3>>(xs, threads);
    const auto b = dev.offload_reduce<backends::HallbergSum<10, 38>>(xs, threads);
    if (threads == 1) {
      hp1 = h.modeled_wall;
      hp_ref = h.value;
    }
    hp_invariant = hp_invariant && (h.value == hp_ref);
    table.begin_row();
    table.add_int(threads);
    table.add_num(d.modeled_wall, 4);
    table.add_num(h.modeled_wall, 4);
    table.add_num(b.modeled_wall, 4);
    table.add_num(h.transfer_seconds / h.modeled_wall, 3);
    table.add_num(hp1 / (threads * h.modeled_wall), 3);
  }
  bench::emit_table(table, args);
  std::printf(
      "\nexpected shape: HP/Hallberg dominate at 1 thread, amortize with "
      "threads; transfer-share climbs toward 1 at 240 threads (the paper's "
      "transfer-dominated regime).\n");
  std::printf("HP sum bit-identical across all thread counts: %s\n",
              hp_invariant ? "yes" : "NO");
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "seed", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
