// Ablation A2c: the carry-deferred block accumulation path.
//
// reduce_hp and every backend inner loop hand whole slices to
// BlockAccumulator (core/hp_kernel.hpp): deposits land in per-limb
// carry-save planes (one unsigned __int128 per limb per sign) and carries
// normalize once per flush instead of once per summand. The contract is
// bit-identity — limbs AND sticky status — with the element-at-a-time
// operator+=(double) loop; this bench first verifies that on every stream
// it times (exit 1 on any mismatch), then measures ns/summand for both
// paths. Streams: the paper's uniform set as all-positive, all-negative
// and mixed-sign, plus the wide-range set (exponents -120..100), whose
// batches straddle limbs and take the per-lane deposit.
//
// Flags: --n (default 4M summands), --seed, --json=PATH (write the bench
// record tools/bench_smoke.py gates; see EXPERIMENTS.md).
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hp_fixed.hpp"
#include "core/hp_kernel.hpp"
#include "core/hp_kernel_simd.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

/// ns total for the block path (BlockAccumulator::accumulate over the whole
/// stream) or the scalar path (operator+= per element).
template <int N, int K>
double time_sum(const std::vector<double>& xs, bool block) {
  return bench::time_min(3, [&] {
    if (block) {
      BlockAccumulator<N, K> blk;
      blk.accumulate(std::span<const double>(xs.data(), xs.size()));
      bench::sink(HpFixed<N, K>(blk).to_double());
    } else {
      HpFixed<N, K> acc;
      for (const double x : xs) acc += x;
      bench::sink(acc.to_double());
    }
  });
}

/// The ablation's precondition: the two paths agree bit for bit, limbs and
/// status, on this stream. Timing a divergent fast path would be garbage.
template <int N, int K>
bool paths_identical(const std::vector<double>& xs) {
  HpFixed<N, K> scalar;
  for (const double x : xs) scalar += x;
  BlockAccumulator<N, K> blk;
  blk.accumulate(std::span<const double>(xs.data(), xs.size()));
  HpFixed<N, K> fast(blk);
  return fast.limbs() == scalar.limbs() && fast.status() == scalar.status();
}

struct BlockRow {
  const char* stream;
  double block_ns;
  double scalar_ns;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv,
                        {"n", "seed", "csv", "json", bench::kMetricsFlag,
                         bench::kFlightFlag});
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  bench::banner("Ablation A2c: carry-deferred block path vs scalar deposits",
                "per-limb carry-save planes normalize once per flush "
                "instead of propagating a carry chain per summand");

  auto mixed = workload::uniform_set(static_cast<std::size_t>(n), seed);
  std::vector<double> positive = mixed;
  std::vector<double> negative = mixed;
  for (std::size_t i = 0; i < positive.size(); ++i) {
    positive[i] = std::abs(positive[i]);
    negative[i] = -std::abs(negative[i]);
  }
  const auto wide =
      workload::wide_range_set(static_cast<std::size_t>(n), seed, -120, 100);

  util::TablePrinter table({"format", "stream", "block ns/add",
                            "scalar ns/add", "speedup"});
  std::vector<BlockRow> rows;
  bool all_identical = true;
  const auto row = [&](const char* label, const std::vector<double>& xs) {
    if (!paths_identical<6, 3>(xs)) {
      std::fprintf(stderr,
                   "ablate_block: block path diverges from scalar on the "
                   "%s stream — refusing to time a wrong kernel\n",
                   label);
      all_identical = false;
      return;
    }
    const double tb =
        1e9 * time_sum<6, 3>(xs, true) / static_cast<double>(xs.size());
    const double ts =
        1e9 * time_sum<6, 3>(xs, false) / static_cast<double>(xs.size());
    rows.push_back({label, tb, ts});
    table.begin_row();
    table.add_cell("HP(6,3)");
    table.add_cell(label);
    table.add_num(tb, 4);
    table.add_num(ts, 4);
    table.add_num(ts / tb, 3);
  };
  row("all-positive", positive);
  row("all-negative", negative);
  row("mixed", mixed);
  row("wide", wide);
  if (!all_identical) return 1;
  bench::emit_table(table, args);
  std::printf(
      "\nreading: the block path wins twice over the scalar loop. It "
      "removes the sign-dependent carry/borrow branch per summand, which "
      "shows most on the mixed-sign stream (the paper's workload), where "
      "the scalar path's sign branch mispredicts; and when the SIMD "
      "deposit path is active (simd level \"%s\" here), it decomposes "
      "kWidth summands per batch in vector lanes, which lifts the "
      "same-sign streams — the scalar path's branch-predictor best case — "
      "well past parity too. The wide stream spreads each batch over "
      "several limbs, so it measures the per-lane deposit rather than the "
      "one-limb fold. Identity of limbs and status is checked above "
      "before timing.\n",
      kernel::simd::level_name(kernel::simd::active_level()));

  // --json=PATH: the bench record (bench/common.hpp) tools/bench_smoke.py
  // gates against bench/BENCH_block.json.
  bench::Record record("ablate_block");
  record.config("format", "HP(6,3)");
  record.config("n", n);
  record.config("seed", static_cast<std::int64_t>(seed));
  for (const BlockRow& r : rows) {
    const std::string stream = r.stream;
    record.add(stream + ".block_ns_per_add", r.block_ns, "ns",
               bench::Better::kLower);
    record.add(stream + ".scalar_ns_per_add", r.scalar_ns, "ns",
               bench::Better::kLower);
    record.add(stream + ".speedup", r.scalar_ns / r.block_ns, "ratio",
               bench::Better::kHigher);
  }
  if (!record.write(args)) return 1;
  return bench::finish(args);
}
