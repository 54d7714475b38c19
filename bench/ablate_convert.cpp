// Ablation A2: conversion cost asymmetry (the §IV.A operation count).
//
// Listing 1 performs the two's-complement translation in the same pass as
// the conversion: negative inputs cost up to 3N extra ALU ops (bit flips +
// look-ahead carry). This bench measures double->HP conversion throughput
// for all-positive, all-negative, and mixed-sign streams, and compares the
// float-scaling path against the exact bit-placement path.
//
// It also carries Ablation A2b: the scatter-add fast path. Since
// operator+=(double) deposits the mantissa directly into the affected limbs
// (detail::scatter_add_double), the old convert-into-temporary + O(N) carry
// add survives only as HpFixed::add_double_reference. This bench times both
// on identical streams; tools/bench_smoke.py gates the ratio against
// bench/BENCH_scatter.json and CI fails if the fast path regresses.
//
// Flags: --n (default 4M conversions), --seed, --json=PATH (write the
// scatter ablation as a bench record; see EXPERIMENTS.md).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hp_convert.hpp"
#include "core/hp_fixed.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

template <int N, int K>
double time_convert(const std::vector<double>& xs, bool exact_path) {
  return bench::time_min(3, [&] {
    util::Limb limbs[N];
    util::Limb acc = 0;
    for (const double x : xs) {
      if (exact_path) {
        // hplint: allow(discard-status) — throughput ablation; status is
        // exercised by tests, not timed here
        detail::from_double_exact(x, limbs, N, K);
      } else {
        // hplint: allow(discard-status) — same: timing the kernel only
        detail::from_double_impl(x, limbs, N, K);
      }
      acc ^= limbs[N - 1];
    }
    bench::sink(static_cast<double>(acc));
  });
}

/// ns/summand for the scatter fast path (operator+=) or the reference
/// convert+add pair on one stream.
template <int N, int K>
double time_accumulate(const std::vector<double>& xs, bool scatter) {
  return bench::time_min(3, [&] {
    HpFixed<N, K> acc;
    if (scatter) {
      for (const double x : xs) acc += x;
    } else {
      for (const double x : xs) acc.add_double_reference(x);
    }
    bench::sink(acc.to_double());
  });
}

struct ScatterRow {
  const char* stream;
  double scatter_ns;
  double reference_ns;
};

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 10));

  bench::banner("Ablation A2: conversion cost by sign and by path",
                "§IV.A: negative inputs cost up to 3N extra ALU ops in "
                "Listing 1's fused two's-complement pass");

  auto mixed = workload::uniform_set(static_cast<std::size_t>(n), seed);
  std::vector<double> positive = mixed;
  std::vector<double> negative = mixed;
  for (std::size_t i = 0; i < positive.size(); ++i) {
    positive[i] = std::abs(positive[i]);
    negative[i] = -std::abs(negative[i]);
  }

  util::TablePrinter table({"format", "stream", "listing1 ns/conv",
                            "exact-path ns/conv"});
  const auto row = [&](const char* label, const std::vector<double>& xs) {
    const double t1 = time_convert<6, 3>(xs, false);
    const double t2 = time_convert<6, 3>(xs, true);
    table.begin_row();
    table.add_cell("HP(6,3)");
    table.add_cell(label);
    table.add_num(1e9 * t1 / static_cast<double>(xs.size()), 4);
    table.add_num(1e9 * t2 / static_cast<double>(xs.size()), 4);
  };
  row("all-positive", positive);
  row("all-negative", negative);
  row("mixed", mixed);
  bench::emit_table(table, args);
  std::printf(
      "\nreading: the negative-stream premium is the two's-complement "
      "work; mixed streams land between. Listing 1's float-scaling loop "
      "vs the frexp bit-placement path shows the cost of the paper's "
      "FP-multiply-based design on this core.\n");

  // --- A2b: scatter-add fast path vs the reference convert+add pair ------
  std::printf(
      "\n=== Ablation A2b: scatter-add deposit vs convert+add (HP(6,3)) "
      "===\n");
  util::TablePrinter table2(
      {"format", "stream", "scatter ns/add", "convert+add ns/add",
       "speedup"});
  std::vector<ScatterRow> rows;
  const auto row2 = [&](const char* label, const std::vector<double>& xs) {
    const double ts = 1e9 * time_accumulate<6, 3>(xs, true) /
                      static_cast<double>(xs.size());
    const double tr = 1e9 * time_accumulate<6, 3>(xs, false) /
                      static_cast<double>(xs.size());
    rows.push_back({label, ts, tr});
    table2.begin_row();
    table2.add_cell("HP(6,3)");
    table2.add_cell(label);
    table2.add_num(ts, 4);
    table2.add_num(tr, 4);
    table2.add_num(tr / ts, 3);
  };
  row2("all-positive", positive);
  row2("all-negative", negative);
  row2("mixed", mixed);
  bench::emit_table(table2, args);
  std::printf(
      "\nreading: the deposit touches 2-3 limbs and carries only until the "
      "chain dies; the reference pair materializes an N-limb temporary and "
      "pays an O(N) add per summand.\n");

  // --json=PATH: the bench record (bench/common.hpp) tools/bench_smoke.py
  // gates against bench/BENCH_scatter.json.
  bench::Record record("ablate_convert");
  record.config("format", "HP(6,3)");
  record.config("n", n);
  record.config("seed", static_cast<std::int64_t>(seed));
  for (const ScatterRow& r : rows) {
    const std::string stream = r.stream;
    record.add(stream + ".scatter_ns_per_add", r.scatter_ns, "ns",
               bench::Better::kLower);
    record.add(stream + ".reference_ns_per_add", r.reference_ns, "ns",
               bench::Better::kLower);
    record.add(stream + ".speedup", r.reference_ns / r.scatter_ns, "ratio",
               bench::Better::kHigher);
  }
  if (!record.write(args)) return 1;
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "seed", "csv", "json", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
