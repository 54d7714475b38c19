// Shared helpers for the figure/table bench harnesses.
//
// Scaling policy (DESIGN.md §2): every bench runs a laptop-friendly
// problem size by default and the paper's full size under HPSUM_FULL=1
// (or explicit --n/--trials flags). Each harness prints which scale it ran
// so EXPERIMENTS.md can record the provenance of every number.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hp_kernel_simd.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hpsum::bench {

/// The --metrics flag every bench harness accepts (add kMetricsFlag to the
/// harness's known-flags list). Bare `--metrics` dumps the telemetry
/// snapshot as JSON to stdout after the run; `--metrics=FILE` writes it to
/// FILE. No flag, no output — and in HPSUM_TRACE=OFF builds the export
/// still works but every counter reads 0.
inline constexpr const char* kMetricsFlag = "metrics";

/// The --flight flag every bench harness accepts (add kFlightFlag to the
/// harness's known-flags list). Presence arms the hpsum_flight event
/// recorder for the run (see arm_flight); after the run the recorded
/// timeline is exported: bare `--flight` prints Chrome trace-event JSON to
/// stdout and `--flight=FILE` writes it to FILE.
inline constexpr const char* kFlightFlag = "flight";

/// Arms the flight recorder when --flight was given. Call right after
/// argument parsing, BEFORE the measured work, so worker threads spawned
/// later get their track labels recorded (set_track is a no-op while
/// disarmed). HPSUM_FLIGHT=1 in the environment arms it even earlier.
inline void arm_flight(const util::Args& args) {
  if (!args.get_string(kFlightFlag, "").empty()) trace::flight::arm();
}

/// Exports through `write` (trace::write_json, flight::dump_chrome_json)
/// when `--flag` was given: bare `--flag` to stdout, `--flag=FILE` to FILE.
/// Returns false when the write failed.
[[nodiscard]] inline bool emit(const util::Args& args, const char* flag,
                               bool (*write)(const std::string&)) {
  const std::string value = args.get_string(flag, "");
  if (value.empty()) return true;
  // util::Args stores "true" for a bare flag; treat that as stdout.
  const std::string path = value == "true" ? "" : value;
  if (write(path)) return true;
  std::fprintf(stderr, "error: could not write --%s file %s\n", flag,
               path.empty() ? "(stdout)" : path.c_str());
  return false;
}

/// Standard harness epilogue: exports --metrics (the trace snapshot after
/// the harness's last measured work) and --flight, and converts any export
/// failure into a nonzero exit status so CI cannot silently lose metrics.
/// Every harness body ends with `return bench::finish(args);`.
[[nodiscard]] inline int finish(const util::Args& args) {
  const bool metrics_ok = emit(args, kMetricsFlag, trace::write_json);
  const bool flight_ok =
      emit(args, kFlightFlag, trace::flight::dump_chrome_json);
  return metrics_ok && flight_ok ? 0 : 1;
}

/// Runs a harness body over the parsed command line; every bench main()
/// is `return bench::run_main(argc, argv, {flags...}, run);`. A bad command
/// line — an unknown flag, a non-flag argument, or a flag value the body
/// cannot use — prints the error and the accepted flags to stderr and
/// returns 2 instead of aborting on an uncaught exception. util::Args
/// reports those as std::invalid_argument, and a library call handed a
/// flag it cannot take (e.g. zero lanes) throws another std::logic_error;
/// in a harness every such throw traces back to a flag value.
[[nodiscard]] inline int run_main(int argc, char** argv,
                                  const std::vector<std::string>& known,
                                  int (*body)(const util::Args&)) {
  try {
    const util::Args args(argc, argv, known);
    return body(args);
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "error: %s\nusage: %s [--flag[=value]]...\nflags:",
                 e.what(), argc > 0 ? argv[0] : "bench");
    for (const std::string& flag : known) {
      std::fprintf(stderr, " --%s", flag.c_str());
    }
    std::fprintf(stderr, "%s\n", known.empty() ? " (none)" : "");
    return 2;
  }
}

/// Problem-size selection: explicit flag > HPSUM_FULL > scaled default.
inline std::int64_t pick(const util::Args& args, const std::string& flag,
                         std::int64_t scaled, std::int64_t full) {
  const std::int64_t base = util::Args::full_scale() ? full : scaled;
  return args.get_int(flag, base);
}

/// Prints the standard bench banner.
inline void banner(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %s (HPSUM_FULL=1 for paper scale)\n\n",
              util::Args::full_scale() ? "FULL (paper)" : "scaled-down");
}

/// Prevents the optimizer from discarding a benchmarked result.
inline void sink(double v) { asm volatile("" : : "g"(v) : "memory"); }

/// Prints the table to stdout and, when --csv=PATH was given, appends its
/// CSV rendering to PATH (for plotting scripts).
inline void emit_table(const util::TablePrinter& table,
                       const util::Args& args) {
  table.print(std::cout);
  const std::string path = args.get_string("csv", "");
  if (!path.empty()) {
    std::ofstream file(path, std::ios::app);
    table.print_csv(file);
  }
}

/// Minimum wallclock over `trials` runs of `fn` (classic min-of-k to shed
/// scheduler noise on a busy host).
inline double time_min(int trials, const std::function<void()>& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    util::WallTimer timer;
    fn();
    const double s = timer.seconds();
    if (s < best) best = s;
  }
  return best;
}

/// Which way a metric improves; gates read it to tell floors from ceilings.
enum class Better { kLower, kHigher };

/// The one machine-readable bench record, written by --json=PATH
/// (EXPERIMENTS.md "Bench records and the smoke gate"):
///   {"bench", "config": {...}, "host": {"nproc", "simd", "trace"},
///    "metrics": [{"metric", "value", "unit", "better"}, ...]}
/// A record carries measurements only; what is gated, and against which
/// bound, lives in tools/bench_smoke.py. Add every ratio right after the
/// two absolute metrics it divides.
class Record {
 public:
  explicit Record(std::string bench) : bench_(std::move(bench)) {}

  void config(const std::string& key, std::int64_t value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, "\"" + value + "\"");
  }

  void add(const std::string& metric, double value, const char* unit,
           Better better) {
    metrics_.push_back({metric, value, unit, better});
  }

  /// Writes the record to the --json path, if one was given. Non-finite
  /// values are written as null, which every gate treats as missing.
  /// Returns false when the write failed.
  [[nodiscard]] bool write(const util::Args& args) const {
    const std::string path = args.get_string("json", "");
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr || !write_to(f)) {
      std::fprintf(stderr, "error: could not write --json file %s\n",
                   path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    Better better;
  };

  /// Renders the record into `f` and closes it; false on a write error.
  bool write_to(std::FILE* f) const {
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"config\": {",
                 bench_.c_str());
    for (std::size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i > 0 ? ", " : "",
                   config_[i].first.c_str(), config_[i].second.c_str());
    }
    std::fprintf(f,
                 "},\n  \"host\": {\"nproc\": %u, \"simd\": \"%s\", "
                 "\"trace\": %s},\n  \"metrics\": [\n",
                 std::thread::hardware_concurrency(),
                 kernel::simd::level_name(kernel::simd::active_level()),
                 trace::enabled() ? "true" : "false");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[32] = "null";
      if (std::isfinite(m.value)) {
        *std::to_chars(value, value + sizeof value - 1, m.value).ptr = '\0';
      }
      std::fprintf(f,
                   "    {\"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                   "\"better\": \"%s\"}%s\n",
                   m.name.c_str(), value, m.unit,
                   m.better == Better::kHigher ? "higher" : "lower",
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Metric> metrics_;
};

}  // namespace hpsum::bench
