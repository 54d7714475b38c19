// Ablation A5: cost of needing no a-priori range (the paper's §V future
// work).
//
// The paper's stated flaw: the user must know the summands' dynamic range a
// priori. One pass in kFullRange, the format that holds every finite
// double, removes that: HpDyn(kFullRange).accumulate(xs) is the block-path
// pass, HpAdaptive the per-add wrapper around the same format. Hallberg's
// add_checked is the other no-a-priori-knowledge strategy the paper
// mentions (runtime carry-out detection) and dismisses as expensive. This
// bench times all of them against correctly pre-sized accumulators.
//
// Flags: --n (default 1M), --trials (default 3), --seed.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/hp_adaptive.hpp"
#include "core/reduce.hpp"
#include "hallberg/hallberg.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 1024 * 1024, 16 * 1024 * 1024);
  const auto trials = static_cast<int>(args.get_int("trials", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 13));

  bench::banner("Ablation A5: cost of needing no a-priori range",
                "§V future work: exact sums with no a-priori range vs "
                "a-priori sized formats");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);

  util::TablePrinter table({"accumulator", "ns/add", "vs pre-sized HP",
                            "normalizations"});
  const double presized = bench::time_min(trials, [&] {
    bench::sink(reduce_hp<3, 2>(xs).to_double());
  });
  const double dyn = bench::time_min(trials, [&] {
    bench::sink(reduce_hp(xs, HpConfig{3, 2}).to_double());
  });
  const double dyn_per_add = bench::time_min(trials, [&] {
    HpDyn acc(HpConfig{3, 2});
    for (const double x : xs) acc += x;
    bench::sink(acc.to_double());
  });
  const double full_range = bench::time_min(trials, [&] {
    HpDyn acc(kFullRange);
    acc.accumulate(xs);
    bench::sink(acc.to_double());
  });
  const double adaptive = bench::time_min(trials, [&] {
    HpAdaptive acc;
    for (const double x : xs) acc += x;
    bench::sink(acc.to_double());
  });
  std::int64_t normalizations = 0;
  const double checked = bench::time_min(trials, [&] {
    Hallberg acc(HallbergParams{10, 58});  // tiny carry buffer: 31 adds
    for (const double x : xs) acc.add_checked(x);
    normalizations = acc.normalizations();
    bench::sink(acc.to_double());
  });

  const auto row = [&](const char* label, double t, std::int64_t events) {
    table.begin_row();
    table.add_cell(label);
    table.add_num(1e9 * t / static_cast<double>(n), 4);
    table.add_num(t / presized, 3);
    table.add_int(events);
  };
  row("HpFixed<3,2> (pre-sized, compile-time)", presized, 0);
  row("HpDyn{3,2}.accumulate (pre-sized, one pass)", dyn, 0);
  row("HpDyn{3,2} += (pre-sized, per add)", dyn_per_add, 0);
  row("HpDyn{34,17}.accumulate (full range, one pass)", full_range, 0);
  row("HpAdaptive += (full range, per add)", adaptive, 0);
  row("Hallberg(10,58) add_checked (runtime guard)", checked, normalizations);
  bench::emit_table(table, args);
  std::printf(
      "\nreading: width costs nothing per summand — the full-range pass "
      "runs at the pre-sized block-path speed, and HpAdaptive's per-add "
      "cost is that of HpDyn += at any width, not of its range. The "
      "Hallberg runtime-guard alternative pays a full limb scan per add "
      "plus periodic normalizations — the expense the paper cites for "
      "rejecting it.\n");
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "trials", "seed", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
