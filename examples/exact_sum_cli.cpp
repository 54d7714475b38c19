// exact_sum_cli — a unix filter for exact summation.
//
// Reads whitespace-separated decimal floating-point numbers from stdin and
// prints the naive double sum, the exact (HP) sum rounded to double, the
// exact decimal expansion, and an order-sensitivity audit. The HP format
// is sized automatically from the data (hp_plan).
//
//   $ seq 1000000 | awk '{print 1/$1}' | ./build/examples/exact_sum_cli
//
// --metrics[=FILE] additionally dumps the runtime telemetry snapshot
// (deposit-path counts, block flushes, status raises;
// see docs/OBSERVABILITY.md) as JSON to stdout or FILE. --flight[=FILE]
// arms the hpsum_flight event recorder and exports the run's timeline as
// Chrome trace-event JSON. --health[=FILE] evaluates the run's telemetry
// through the src/audit health rules and prints the indicator report as
// JSON.
//
// --shards=P additionally re-runs the reduction through the engine's
// sharded sink: P depositor threads stream the data into P engine shards
// in chunks of --snapshot-every values (default 4096) while a monitor
// thread takes live exact snapshots of the running total; the drained
// result must be bit-identical (limbs + status) to the sequential sum.
//
// Exit status: 0 on success; 1 on unparsable input, non-finite input, a
// failed --metrics/--flight/--health FILE write, or an engine-routed
// total that is not bit-identical to the sequential reference; 2 on a
// usage error (an unknown flag or a bad flag value), found before stdin
// is read.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "audit/health.hpp"
#include "backends/scaling.hpp"
#include "core/hp_dyn.hpp"
#include "core/hp_plan.hpp"
#include "core/reduce.hpp"
#include "engine/engine.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace {

const std::vector<std::string> kFlags = {"metrics", "flight", "health",
                                         "shards", "snapshot-every"};

/// Every flag, parsed and range-checked before stdin is read. The FILE
/// flags hold "" when absent and "true" when given without a value.
struct Options {
  std::string metrics, flight, health;
  std::size_t shards = 0;
  std::size_t snapshot_every = 4096;
};

/// Throws std::invalid_argument naming the flag on any usage error.
Options parse_options(int argc, char** argv) {
  const hpsum::util::Args args(argc, argv, kFlags);
  const auto at_least = [&](const char* name, std::int64_t fallback,
                            std::int64_t min) {
    const std::int64_t v = args.get_int(name, fallback);
    if (v < min) {
      throw std::invalid_argument("--" + std::string(name) + " must be >= " +
                                  std::to_string(min) + ", got " +
                                  std::to_string(v));
    }
    return v;
  };
  Options o;
  o.metrics = args.get_string("metrics", "");
  o.flight = args.get_string("flight", "");
  o.health = args.get_string("health", "");
  o.shards = static_cast<std::size_t>(at_least("shards", 0, 0));
  o.snapshot_every =
      static_cast<std::size_t>(at_least("snapshot-every", 4096, 1));
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpsum;
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "exact_sum_cli: %s\nusage: exact_sum_cli "
                 "[--flag[=value]]... < numbers\nflags:", e.what());
    for (const std::string& flag : kFlags) {
      std::fprintf(stderr, " --%s", flag.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  std::vector<double> xs;
  double v = 0;
  while (std::cin >> v) xs.push_back(v);
  if (!std::cin.eof()) {
    std::fprintf(stderr, "exact_sum_cli: unparsable token on stdin\n");
    return 1;
  }

  try {
    if (!opt.flight.empty()) trace::flight::arm();
    if (xs.empty()) {
      std::printf("no input values; sum = 0\n");
      return 0;
    }

    const SumPlan plan = plan_for_data(xs);
    const HpConfig cfg = suggest_config(plan);
    const trace::flight::ReductionScope reduction(xs.size());
    const HpDyn exact = reduce_hp(xs, cfg);

    std::printf("values           : %zu\n", xs.size());
    std::printf("|x| range        : [%.6e, %.6e]\n", plan.min_abs,
                plan.max_abs);
    std::printf("HP format        : N=%d, k=%d (%d value bits)\n", cfg.n,
                cfg.k, precision_bits(cfg));
    std::printf("double sum       : %.17e\n", reduce_double(xs));
    std::printf("exact sum        : %.17e\n", exact.to_double());
    std::printf("exact decimal    : %s\n", exact.to_decimal_string(60).c_str());
    std::printf("status           : %s\n", to_string(exact.status()).c_str());

    const std::size_t shards = opt.shards;
    if (shards > 0) {
      const std::size_t chunk = opt.snapshot_every;
      engine::ShardSet<engine::DynSum> sink(shards, engine::DynSum(cfg));
      std::atomic<bool> done{false};
      std::atomic<std::uint64_t> live_snaps{0};
      std::jthread monitor([&] {
        while (!done.load(std::memory_order_acquire)) {
          (void)sink.snapshot();  // live exact total, writers running
          live_snaps.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
      {
        const auto slices = backends::partition(xs, static_cast<int>(shards));
        std::vector<std::jthread> depositors;
        depositors.reserve(shards);
        for (std::size_t t = 0; t < shards; ++t) {
          depositors.emplace_back([&, t] {
            auto lane = sink.shard(t);
            std::span<const double> rest = slices[t];
            while (!rest.empty()) {
              const std::size_t take = rest.size() < chunk ? rest.size() : chunk;
              lane.deposit(rest.first(take));  // one publish per chunk
              rest = rest.subspan(take);
            }
          });
        }
      }  // depositors join
      done.store(true, std::memory_order_release);
      monitor.join();
      const HpDyn engine_total = sink.drain().hp;
      const bool identical = engine_total == exact &&
                             engine_total.status() == exact.status();
      std::printf("engine shards    : %zu shards, chunk %zu, %llu live "
                  "snapshots, bit-identical to sequential: %s\n",
                  shards, chunk,
                  static_cast<unsigned long long>(live_snaps.load()),
                  identical ? "yes" : "NO");
      if (!identical) return 1;
    }

    const auto report = audit::order_sensitivity(xs, 64, 1);
    std::printf("order sensitivity: stddev %.3e, worst |err| %.3e over %zu "
                "shuffles\n",
                report.stddev, report.worst_abs_error, report.trials);
    if (trace::enabled()) {
      // Name-based lookup (counter_from_name under the hood): the CLI
      // addresses counters by their stable exported names, like external
      // consumers of the JSON schema do.
      std::printf("audit telemetry  : %llu fast-path deposits, "
                  "%llu status raises (inexact)\n",
                  static_cast<unsigned long long>(
                      report.trace_delta.value("core.scatter_add.calls")
                          .value_or(0)),
                  static_cast<unsigned long long>(
                      report.trace_delta.value("core.status_raise.inexact")
                          .value_or(0)));
    }

    // A bare FILE flag ("true") exports to stdout.
    const auto exported = [](const char* flag, const std::string& value,
                             bool (*write)(const std::string&)) {
      if (value.empty()) return true;
      const std::string path = value == "true" ? "" : value;
      if (write(path)) return true;
      std::fprintf(stderr, "exact_sum_cli: could not write --%s file %s\n",
                   flag, path.empty() ? "(stdout)" : path.c_str());
      return false;
    };
    const bool ok =
        exported("health", opt.health,
                 [](const std::string& path) {
                   return trace::write_file(path, audit::health_report_json());
                 }) &&
        exported("metrics", opt.metrics, trace::write_json) &&
        exported("flight", opt.flight, trace::flight::dump_chrome_json);
    if (!ok) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exact_sum_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
