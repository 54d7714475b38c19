// Figure 4 reproduction: runtime of the HP method (N=8, k=4; 511 precision
// bits) vs the Hallberg method at near-equivalent precision (Table 2
// parameters, stepped by summand count), summing n wide-range reals in
// [-2^191, 2^191] (smallest ±2^-223), for n = 128 .. 16M.
//
// Paper result: Hallberg slightly wins at small n (few carry-buffer bits
// wasted, no carries); HP overtakes past ~1M summands — information-content
// maximization matches carry minimization. Also prints the §IV.A
// operation-count analysis: measured per-block costs c_p, c_b and the
// eq. (6) speedup lower bound S >= (c_b/c_p) * 32/M.
//
// Each method is timed on two paths: scalar (`acc += x` / `acc.add(x)`, the
// paper's per-summand algorithms) and span (`acc.accumulate(xs)`: HP's
// carry-deferred block path, Hallberg's exponent-indexed chunk deposit).
// Scalar vs scalar is the paper's comparison; span vs span is best vs best.
//
// Flags: --nmax (default 2M; paper 16M), --trials (default 3), --seed.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/hp_fixed.hpp"
#include "hallberg/hallberg.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

struct Times {
  double scalar = 0;
  double span = 0;
};

/// bench::time_min after one untimed call: at n = 128 a cold first call
/// reads several times a warm one, so with --trials=1 the small-n rows
/// would time the cold call.
double warm_min(int trials, const std::function<void()>& fn) {
  fn();
  return bench::time_min(trials, fn);
}

Times time_hp(const std::vector<double>& xs, int trials) {
  return {warm_min(trials,
                   [&] {
                     HpFixed<8, 4> acc;
                     for (const double x : xs) acc += x;
                     bench::sink(acc.to_double());
                   }),
          warm_min(trials, [&] {
            HpFixed<8, 4> acc;
            acc.accumulate(xs);
            bench::sink(acc.to_double());
          })};
}

template <int N, int M>
Times time_hallberg(const std::vector<double>& xs, int trials) {
  return {warm_min(trials,
                   [&] {
                     HallbergFixed<N, M> acc;
                     for (const double x : xs) acc.add(x);
                     bench::sink(acc.to_double());
                   }),
          warm_min(trials, [&] {
            HallbergFixed<N, M> acc;
            acc.accumulate(xs);
            bench::sink(acc.to_double());
          })};
}

int run(const util::Args& args) {
  bench::arm_flight(args);
  // The crossover the paper reports sits past 1M summands, so even the
  // scaled default sweeps to the paper's full 16M.
  const auto nmax = bench::pick(args, "nmax", 16 * 1024 * 1024, 16 * 1024 * 1024);
  const auto trials = static_cast<int>(args.get_int("trials", 2));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4));

  bench::banner("Fig 4: HP vs Hallberg runtime at ~512-bit precision",
                "Fig 4 (§IV.A): wallclock + speedup for n = 128..16M "
                "wide-range reals");

  util::TablePrinter table({"n", "Hallberg(N,M)", "t_HP(8,4) s", "t_Hallberg s",
                            "speedup Hb/HP", "t_HP span s",
                            "t_Hallberg span s", "speedup span"});
  Times cp_per_block;
  Times cb_per_block;
  std::int64_t first_scalar_win = -1;  // smallest n with speedup >= 1
  std::vector<std::int64_t> ns;
  for (std::int64_t n = 128; n <= nmax; n *= 4) ns.push_back(n);
  if (ns.empty() || ns.back() != nmax) ns.push_back(nmax);
  for (const std::int64_t n : ns) {
    const auto xs =
        workload::wide_range_set(static_cast<std::size_t>(n), seed + static_cast<std::uint64_t>(n));
    const Times t_hp = time_hp(xs, trials);

    // Table 2 parameter step: pick the M whose carry buffer covers n.
    Times t_hb;
    const char* params = nullptr;
    if (n <= 2047) {
      t_hb = time_hallberg<10, 52>(xs, trials);
      params = "(10,52)";
    } else if (n <= (1 << 20) - 1) {
      t_hb = time_hallberg<12, 43>(xs, trials);
      params = "(12,43)";
    } else {
      t_hb = time_hallberg<14, 37>(xs, trials);
      params = "(14,37)";
    }
    if (first_scalar_win < 0 && t_hb.scalar / t_hp.scalar >= 1.0) {
      first_scalar_win = n;
    }
    table.begin_row();
    table.add_int(n);
    table.add_cell(params);
    table.add_num(t_hp.scalar, 4);
    table.add_num(t_hb.scalar, 4);
    table.add_num(t_hb.scalar / t_hp.scalar, 4);
    table.add_num(t_hp.span, 4);
    table.add_num(t_hb.span, 4);
    table.add_num(t_hb.span / t_hp.span, 4);
    // Per-64-bit-block unit costs from the largest run (eq. 3).
    const double hp_blocks = static_cast<double>(n) * 8.0;
    const double hb_blocks =
        static_cast<double>(n) *
        (n <= 2047 ? 10.0 : (n <= (1 << 20) - 1 ? 12.0 : 14.0));
    cp_per_block = {t_hp.scalar / hp_blocks, t_hp.span / hp_blocks};
    cb_per_block = {t_hb.scalar / hb_blocks, t_hb.span / hb_blocks};
  }
  bench::emit_table(table, args);

  std::printf("\n--- §IV.A operation-count analysis ---\n");
  const auto analysis = [](const char* path, double cp, double cb) {
    std::printf("%s: measured per-block unit costs (largest n): c_p = %.3e s, "
                "c_b = %.3e s, ratio c_b/c_p = %.3f\n",
                path, cp, cb, cb / cp);
    for (const int m : {52, 43, 37}) {
      std::printf("  eq.(6) lower bound at M=%d: S >= (c_b/c_p) * 32/%d = %.3f\n",
                  m, m, (cb / cp) * 32.0 / m);
    }
  };
  analysis("scalar (acc += x / add(x))", cp_per_block.scalar,
           cb_per_block.scalar);
  analysis("span (accumulate(xs))", cp_per_block.span, cb_per_block.span);
  std::printf(
      "\npaper's claim (scalar comparison): speedup < 1 for small n "
      "(Hallberg wins), crossing ~1 near 1M and rising as M drops "
      "(eq. 6: S grows as M shrinks).\n");
  if (first_scalar_win >= 0) {
    std::printf("this run: scalar speedup first >= 1 at n = %lld\n",
                static_cast<long long>(first_scalar_win));
  } else {
    std::printf("this run: scalar speedup never >= 1 (n = 128..%lld)\n",
                static_cast<long long>(ns.back()));
  }
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"nmax", "trials", "seed", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
