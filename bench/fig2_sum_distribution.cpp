// Figure 2 reproduction: distribution of floating-point sums of one
// 1024-element cancellation set over many random summation orders.
//
// Paper result: an approximately normal distribution centered on the true
// sum (zero) with the Fig 1 stddev (~1.1e-17 at n=1024); the histogram
// spans roughly +/-6e-17.
//
// Flags: --trials (default 4096; paper 16384), --n (default 1024), --seed,
//        --bins (default 25).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/reduce.hpp"
#include "stats/stats.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto trials = bench::pick(args, "trials", 4096, 16384);
  const auto n = static_cast<std::size_t>(args.get_int("n", 1024));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20160524));
  const auto bins = static_cast<std::size_t>(args.get_int("bins", 25));

  bench::banner("Fig 2: distribution of random-order double sums",
                "Fig 2 (§II.A): histogram of 16384 sums of 1024 "
                "semi-random reals in [-1e-3, 1e-3]");

  std::vector<double> xs = workload::cancellation_set(n, seed);
  stats::RunningStats rs;
  std::vector<double> sums;
  sums.reserve(static_cast<std::size_t>(trials));
  for (std::int64_t t = 0; t < trials; ++t) {
    workload::shuffle(xs, seed ^ (static_cast<std::uint64_t>(t) * 0x9E3779B9u));
    const double s = reduce_double(xs);
    rs.add(s);
    sums.push_back(s);
  }

  const double span = 6.0 * rs.stddev();
  stats::Histogram hist(-span, span, bins);
  for (const double s : sums) hist.add(s);

  std::printf("trials %lld, n %zu\n", static_cast<long long>(trials), n);
  std::printf("mean   % .3e (true sum is 0)\n", rs.mean());
  std::printf("stddev % .3e\n\n", rs.stddev());
  std::printf("%14s  %8s\n", "bin center", "count");
  std::uint64_t peak = 1;
  for (const auto& [center, count] : hist.rows()) {
    peak = std::max(peak, count);
  }
  for (const auto& [center, count] : hist.rows()) {
    const int bar = static_cast<int>(60 * count / peak);
    std::printf("% 14.3e  %8llu  %s\n", center,
                static_cast<unsigned long long>(count),
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  std::printf(
      "\nexpected shape: symmetric bell centered on 0 — the hidden rounding "
      "error is an unbiased random walk.\nHP reference: every one of these "
      "trials sums to exactly 0 in HP(3,2) (see fig1 bench).\n");
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"trials", "n", "seed", "bins", "csv",
                          bench::kMetricsFlag, bench::kFlightFlag}, run);
}
