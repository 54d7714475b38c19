// Ablation A3: cost vs limb count (the eq. 3 linearity assumption).
//
// The §IV.A analysis models both methods' per-summand cost as c * N for a
// per-block constant c. This bench sweeps HP limb counts N = 2..16 and
// reports ns per scalar accumulate (operator+=), with that cost divided by
// the N = 2 row's c * N prediction. The deposit touches only the limbs a
// mantissa lands on, so its cost stays flat in N and the ratio falls as
// 2/N; the O(N) work is in the carry flush and the HP + HP combines,
// which this bench does not time.
//
// Flags: --n (default 4M), --seed.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/hp_fixed.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

template <int N, int K>
void row(util::TablePrinter& table, const std::vector<double>& xs,
         double* unit1) {
  const double t = bench::time_min(3, [&] {
    HpFixed<N, K> acc;
    for (const double x : xs) acc += x;
    bench::sink(acc.to_double());
  });
  const double per = 1e9 * t / static_cast<double>(xs.size());
  table.begin_row();
  table.add_int(N);
  table.add_int(K);
  table.add_int(64 * N - 1);
  table.add_num(per, 4);
  table.add_num(per / N, 4);
  if (N == 2) *unit1 = per / N;
  table.add_num(per / (*unit1 * N), 3);
}

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  bench::banner("Ablation A3: HP cost vs limb count",
                "eq. (3): T = c * N per summand — how linear is it?");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);
  util::TablePrinter table({"N", "k", "precision bits", "ns/add", "ns/add/N",
                            "vs linear model"});
  double unit1 = 1.0;
  row<2, 1>(table, xs, &unit1);
  row<3, 2>(table, xs, &unit1);
  row<4, 2>(table, xs, &unit1);
  row<6, 3>(table, xs, &unit1);
  row<8, 4>(table, xs, &unit1);
  row<12, 6>(table, xs, &unit1);
  row<16, 8>(table, xs, &unit1);
  bench::emit_table(table, args);
  std::printf(
      "\nreading: ns/add is flat in N. A deposit writes the one or two "
      "limbs the mantissa lands on, plus a carry that rarely travels, "
      "whatever the limb count, so 'vs linear model' (measured cost over "
      "the N = 2 row scaled by N) falls as 2/N instead of staying near "
      "1.0: eq. (3)'s c * N does not describe the deposit. Only the carry "
      "flush and the HP + HP combines walk all N limbs, and this bench "
      "times neither.\n");
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "seed", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
