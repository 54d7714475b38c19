// Figure 1 reproduction: standard deviation of the residual error when
// summing sets of n semi-random numbers whose true sum is zero, in random
// orders, with double precision vs the HP method (N=3, k=2).
//
// Paper result: double-precision stddev grows roughly linearly with n
// (reaching ~1e-17 by n=1024); HP computes exactly zero in every trial.
//
// Flags: --trials (default 2048; paper 16384), --seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/reduce.hpp"
#include "stats/stats.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto trials = bench::pick(args, "trials", 2048, 16384);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20160523));

  bench::banner("Fig 1: rounding error growth vs number of summands",
                "Fig 1 (§II.A): stddev of 16384 random-order sums of "
                "cancellation sets, n = 64..1024");

  util::TablePrinter table({"n", "stddev(double)", "max|double|",
                            "stddev(HP 3,2)", "HP all-zero"});
  for (std::size_t n = 64; n <= 1024; n += 64) {
    const auto base = workload::cancellation_set(n, seed + n);
    stats::RunningStats dbl;
    stats::RunningStats hp_stats;
    bool hp_all_zero = true;
    std::vector<double> xs = base;
    for (std::int64_t t = 0; t < trials; ++t) {
      workload::shuffle(xs, seed ^ (static_cast<std::uint64_t>(t) * 2654435761u));
      dbl.add(reduce_double(xs));
      const auto hp = reduce_hp<3, 2>(xs);
      hp_stats.add(hp.to_double());
      hp_all_zero = hp_all_zero && hp.is_zero();
    }
    table.begin_row();
    table.add_int(static_cast<std::int64_t>(n));
    table.add_num(dbl.stddev(), 4);
    table.add_num(std::max(std::abs(dbl.min()), std::abs(dbl.max())), 4);
    table.add_num(hp_stats.stddev(), 4);
    table.add_cell(hp_all_zero ? "yes" : "NO");
  }
  bench::emit_table(table, args);
  std::printf(
      "\nexpected shape: stddev(double) grows ~linearly with n "
      "(paper: ~1.1e-17 at n=1024); stddev(HP) identically 0.\n");
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"trials", "seed", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
