// Ablation: the engine-routed deposit path vs the direct accumulator.
//
// PR 10 reroutes every parallel driver through engine::ShardSet — each
// lane's deposits now publish a seqlock-protected image so concurrent
// readers can take bit-exact snapshots while writers run. That publish
// (one epoch bump + a relaxed word-image store per deposited chunk) is
// the only new work on the hot path, and this bench prices it: the
// chunked direct path (`Acc::accumulate(chunk)` in a loop) against the
// identical loop through an engine lane. tools/bench_smoke.py gates the
// overhead ratio at <= 1.05 — the refactor must stay within 5% of the
// pre-refactor driver. A second sweep reports aggregate deposits/s as
// the lane/thread count grows (thread-affine shards should scale without
// contention; on this 1-core host the sweep mostly prices the publish +
// thread machinery, not parallel speedup).
//
// Flags: --n (default 4M summands), --seed, --chunk (doubles per deposit,
// default 4096), --maxshards (default 8), --json=PATH (the bench record
// tools/bench_smoke.py gates).
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "backends/accumulators.hpp"
#include "engine/engine.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/workload.hpp"

#include "common.hpp"

namespace {

using namespace hpsum;
using Acc = backends::HpSum<6, 3>;

/// Chunked direct accumulation — the pre-refactor driver inner loop.
double sum_direct(std::span<const double> xs, std::size_t chunk) {
  Acc acc;
  std::span<const double> rest = xs;
  while (!rest.empty()) {
    const std::size_t take = std::min(rest.size(), chunk);
    acc.accumulate(rest.first(take));
    rest = rest.subspan(take);
  }
  return acc.result();
}

/// The same loop through a single engine lane (publish per chunk).
double sum_engine(std::span<const double> xs, std::size_t chunk) {
  engine::ShardSet<Acc> sink(1);
  auto lane = sink.shard(0);
  std::span<const double> rest = xs;
  while (!rest.empty()) {
    const std::size_t take = std::min(rest.size(), chunk);
    lane.deposit(rest.first(take));
    rest = rest.subspan(take);
  }
  return sink.drain().result();
}

/// Precondition for timing: the two paths are bit-identical, limbs and
/// status, on this stream.
bool paths_identical(std::span<const double> xs, std::size_t chunk) {
  Acc direct;
  direct.accumulate(xs);
  engine::ShardSet<Acc> sink(1);
  std::span<const double> rest = xs;
  while (!rest.empty()) {
    const std::size_t take = std::min(rest.size(), chunk);
    sink.shard(0).deposit(rest.first(take));
    rest = rest.subspan(take);
  }
  const Acc routed = sink.drain();
  return routed.hp.limbs() == direct.hp.limbs() &&
         routed.hp.status() == direct.hp.status();
}

/// Aggregate deposits/s with `shards` depositor threads, one lane each.
double sweep_point(std::span<const double> xs, std::size_t shards,
                   std::size_t chunk) {
  const double secs = bench::time_min(3, [&] {
    engine::ShardSet<Acc> sink(shards);
    std::vector<std::jthread> threads;
    threads.reserve(shards);
    const std::size_t per = xs.size() / shards;
    for (std::size_t t = 0; t < shards; ++t) {
      const std::size_t len = t + 1 == shards ? xs.size() - t * per : per;
      const std::span<const double> slice = xs.subspan(t * per, len);
      threads.emplace_back([&sink, slice, chunk, t] {
        auto lane = sink.shard(t);
        std::span<const double> rest = slice;
        while (!rest.empty()) {
          const std::size_t take = std::min(rest.size(), chunk);
          lane.deposit(rest.first(take));
          rest = rest.subspan(take);
        }
      });
    }
    threads.clear();  // join
    bench::sink(sink.drain().result());
  });
  return static_cast<double>(xs.size()) / secs;
}

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  const auto chunk_arg = args.get_int("chunk", 4096);
  const std::size_t chunk =
      chunk_arg > 0 ? static_cast<std::size_t>(chunk_arg) : 4096;
  const auto maxshards_arg = args.get_int("maxshards", 8);
  const std::size_t maxshards =
      maxshards_arg > 0 ? static_cast<std::size_t>(maxshards_arg) : 8;

  bench::banner("Ablation: engine-routed deposits vs the direct path",
                "the seqlock publish per chunk is the engine's only hot-"
                "path cost; the smoke gate holds it within 5%");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);
  const std::span<const double> view(xs.data(), xs.size());
  if (!paths_identical(view, chunk)) {
    std::fprintf(stderr,
                 "ablate_shards: engine-routed sum diverges from the direct "
                 "path — refusing to time a wrong kernel\n");
    return 1;
  }

  const double direct_s =
      bench::time_min(3, [&] { bench::sink(sum_direct(view, chunk)); });
  const double engine_s =
      bench::time_min(3, [&] { bench::sink(sum_engine(view, chunk)); });
  const double direct_ns = 1e9 * direct_s / static_cast<double>(n);
  const double engine_ns = 1e9 * engine_s / static_cast<double>(n);
  const double overhead = engine_ns / direct_ns;

  util::TablePrinter head({"path", "ns/add", "ratio"});
  head.begin_row();
  head.add_cell("direct HP(6,3)");
  head.add_num(direct_ns, 4);
  head.add_num(1.0, 3);
  head.begin_row();
  head.add_cell("engine lane");
  head.add_num(engine_ns, 4);
  head.add_num(overhead, 3);
  bench::emit_table(head, args);

  util::TablePrinter sweep({"shards", "Mdeposits/s"});
  for (std::size_t s = 1; s <= maxshards; s *= 2) {
    const double rate = sweep_point(view, s, chunk);
    sweep.begin_row();
    sweep.add_num(static_cast<double>(s), 0);
    sweep.add_num(rate / 1e6, 2);
  }
  bench::emit_table(sweep, args);

  std::printf(
      "\nreading: the engine lane re-runs the exact same block-path "
      "deposits and adds one seqlock publish per %zu-value chunk — an "
      "epoch bump plus a %d-word relaxed store — so the ratio prices the "
      "snapshot capability itself. The shard sweep shows the deposit side "
      "scales by adding lanes (no shared state between depositors); "
      "readers never block writers.\n",
      chunk, 6 + 1);

  // --json=PATH: the bench record (bench/common.hpp) tools/bench_smoke.py
  // gates. The sweep stays in the printed table.
  bench::Record record("ablate_shards");
  record.config("format", "HP(6,3)");
  record.config("n", n);
  record.config("seed", static_cast<std::int64_t>(seed));
  record.config("chunk", static_cast<std::int64_t>(chunk));
  record.add("direct_ns_per_add", direct_ns, "ns", bench::Better::kLower);
  record.add("engine_ns_per_add", engine_ns, "ns", bench::Better::kLower);
  record.add("overhead_ratio", overhead, "ratio", bench::Better::kLower);
  if (!record.write(args)) return 1;
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "seed", "chunk", "maxshards", "csv", "json",
                          bench::kMetricsFlag, bench::kFlightFlag}, run);
}
