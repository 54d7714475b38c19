// Figure 5 reproduction: OpenMP strong scaling of a global sum of 32M
// uniform reals in [-0.5, 0.5] — double precision vs HP(6,3) vs
// Hallberg(10,38) for 1..8 threads.
//
// Paper result (dual hex-core Xeon X5650): HP costs ~37-38x double at one
// thread; the overhead amortizes as threads are added; all three methods
// scale with good efficiency. The reported times are MODELED (max
// per-thread busy + merge; DESIGN.md §2) next to the raw measured
// wallclock, which is real only up to the host's core count.
//
// Hallberg is timed on two paths: span (HallbergSum, the exponent-indexed
// chunk deposit) and scalar (the paper's per-summand add() loop).
//
// Flags: --n (default 4M; paper 32M), --trials (default 3), --seed,
//        --maxp (default 8).
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "backends/accumulators.hpp"
#include "backends/scaling.hpp"
#include "common.hpp"
#include "core/reduce.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

/// Hallberg(10,38) through the paper's per-summand add() loop: the scalar
/// column beside HallbergSum's span deposit.
struct HallbergScalarSum {
  HallbergFixed<10, 38> hb;

  void accumulate(double x) noexcept { hb.add(x); }
  void accumulate(std::span<const double> xs) noexcept {
    for (const double x : xs) hb.add(x);
  }
  void merge(const HallbergScalarSum& o) noexcept { hb.add(o.hb); }
  [[nodiscard]] double result() const noexcept { return hb.to_double(); }
  [[nodiscard]] static std::string name() { return "Hallberg(10,38) scalar"; }
};

template <class Acc>
std::vector<backends::ScalingPoint> sweep(const std::vector<double>& xs,
                                          int maxp, int trials) {
  std::vector<backends::ScalingPoint> points;
  for (int p = 1; p <= maxp; p *= 2) {
    backends::ScalingPoint best;
    best.modeled_wall = 1e300;
    for (int t = 0; t < trials; ++t) {
      const auto point = backends::run_openmp<Acc>(xs, p);
      if (point.modeled_wall < best.modeled_wall) best = point;
    }
    points.push_back(best);
  }
  return points;
}

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto trials = static_cast<int>(args.get_int("trials", 3));
  const auto maxp = static_cast<int>(args.get_int("maxp", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

  bench::banner("Fig 5: OpenMP strong scaling, 32M global sum",
                "Fig 5 (§IV.B): wallclock + efficiency, double vs HP(6,3) "
                "vs Hallberg(10,38), 1..8 threads");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);
  bench::sink(reduce_double(xs));  // warm pages/caches before any baseline
  const auto dbl = sweep<backends::DoubleSum>(xs, maxp, trials);
  const auto hp = sweep<backends::HpSum<6, 3>>(xs, maxp, trials);
  const auto hb = sweep<backends::HallbergSum<10, 38>>(xs, maxp, trials);
  const auto hb_scalar = sweep<HallbergScalarSum>(xs, maxp, trials);

  util::TablePrinter table({"threads", "t_double(model)", "eff_d",
                            "t_HP(model)", "eff_HP", "t_Hall(model)",
                            "eff_Hall", "t_Hall scalar(model)",
                            "eff_Hall scalar", "t_HP(measured)"});
  for (std::size_t i = 0; i < dbl.size(); ++i) {
    table.begin_row();
    table.add_int(dbl[i].pes);
    table.add_num(dbl[i].modeled_wall, 4);
    table.add_num(backends::efficiency(dbl[0], dbl[i]), 3);
    table.add_num(hp[i].modeled_wall, 4);
    table.add_num(backends::efficiency(hp[0], hp[i]), 3);
    table.add_num(hb[i].modeled_wall, 4);
    table.add_num(backends::efficiency(hb[0], hb[i]), 3);
    table.add_num(hb_scalar[i].modeled_wall, 4);
    table.add_num(backends::efficiency(hb_scalar[0], hb_scalar[i]), 3);
    table.add_num(hp[i].measured_wall, 4);
  }
  bench::emit_table(table, args);

  std::printf("\nHP/double single-thread cost ratio: %.1fx (paper: 37-38x)\n",
              hp[0].modeled_wall / dbl[0].modeled_wall);
  std::printf("Hallberg/HP single-thread ratio:    %.2fx span, %.2fx scalar "
              "(paper: ~1, same precision class)\n",
              hb[0].modeled_wall / hp[0].modeled_wall,
              hb_scalar[0].modeled_wall / hp[0].modeled_wall);
  std::printf(
      "\nsums (order-invariance check): HP identical at every p: %s\n",
      [&] {
        for (const auto& point : hp) {
          if (point.value != hp[0].value) return "NO";
        }
        return "yes";
      }());
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "trials", "seed", "maxp", "csv",
                          bench::kMetricsFlag, bench::kFlightFlag}, run);
}
