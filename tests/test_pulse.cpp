// Tests for hpsum_pulse (src/trace/pulse.*): the pure render helpers, the
// sampler arm/tick/disarm lifecycle against real files, and — the reason
// this file exists in the TSan matrix — the sampler thread racing probe
// writers and concurrent snapshot() callers.
//
// The render helpers are exercised in every build; the lifecycle and
// concurrency tests skip themselves under -DHPSUM_TRACE=OFF, where the
// disabled-contract test takes over (arm() writes a header-only stream
// with "enabled": false and reports failure).

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "trace/pulse.hpp"
#include "trace/trace.hpp"

namespace {

namespace trace = hpsum::trace;
namespace pulse = hpsum::trace::pulse;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::size_t idx(trace::Counter c) { return static_cast<std::size_t>(c); }
std::size_t idx(trace::Hist h) { return static_cast<std::size_t>(h); }
std::size_t idx(trace::Gauge g) { return static_cast<std::size_t>(g); }

// --- render helpers (build-independent) -----------------------------------

TEST(PulseRender, HeaderCarriesVersionEnabledIntervalEpoch) {
  pulse::Config cfg;
  cfg.interval = std::chrono::milliseconds(125);
  const std::string h = pulse::jsonl_header(cfg, 1234);
  EXPECT_NE(h.find("\"hpsum_pulse\": 1"), std::string::npos) << h;
  EXPECT_NE(h.find("\"interval_ms\": 125"), std::string::npos) << h;
  EXPECT_NE(h.find("\"epoch_ms\": 1234"), std::string::npos) << h;
  const char* want =
      trace::enabled() ? "\"enabled\": true" : "\"enabled\": false";
  EXPECT_NE(h.find(want), std::string::npos) << h;
  EXPECT_EQ(h.front(), '{');
  EXPECT_EQ(h.back(), '}');
}

TEST(PulseRender, TickEmitsSparseDeltasAndEveryGauge) {
  trace::Snapshot d;
  d.values[idx(trace::Counter::kScatterAddCalls)] = 3;
  auto& hd = d.hists[idx(trace::Hist::kMpisimMsgBytes)];
  hd.count = 2;
  hd.sum = 12;
  hd.buckets[4] = 2;
  d.gauges[idx(trace::Gauge::kAccLimbOccupancy)] = 6;

  const std::string line = pulse::jsonl_tick(d, 999, 7);
  EXPECT_NE(line.find("\"seq\": 7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts_ms\": 999"), std::string::npos) << line;
  // Nonzero counter present; zero counters elided.
  EXPECT_NE(line.find("\"core.scatter_add.calls\": 3"), std::string::npos);
  EXPECT_EQ(line.find("\"core.reference_add.calls\""), std::string::npos);
  // Sparse histogram: only bucket 4, with count/sum.
  EXPECT_NE(line.find("\"mpisim.msg_bytes\": {\"count\": 2, \"sum\": 12, "
                      "\"buckets\": {\"4\": 2}}"),
            std::string::npos)
      << line;
  // Zero-count histograms elided entirely.
  EXPECT_EQ(line.find("\"core.reduce.latency_ns\""), std::string::npos);
  // Gauges are levels, not deltas: every one is present every tick.
  for (std::size_t g = 0; g < trace::kGaugeCount; ++g) {
    const std::string key =
        '"' + std::string(trace::gauge_name(static_cast<trace::Gauge>(g))) +
        '"';
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
  EXPECT_NE(line.find("\"core.block.limb_occupancy\": 6"), std::string::npos);
}

TEST(PulseRender, PrometheusCumulativeBucketsSuffixesAndNames) {
  trace::Snapshot t;
  t.values[idx(trace::Counter::kScatterAddCalls)] = 5;
  auto& hd = t.hists[idx(trace::Hist::kMpisimMsgBytes)];
  hd.buckets[0] = 1;  // value 0
  hd.buckets[3] = 2;  // values 4..7
  hd.count = 3;
  hd.sum = 12;
  t.gauges[idx(trace::Gauge::kAccLimbOccupancy)] = 6;

  const std::string out = pulse::to_prometheus(t);
  EXPECT_NE(out.find("# TYPE hpsum_core_scatter_add_calls counter\n"
                     "hpsum_core_scatter_add_calls_total 5\n"),
            std::string::npos);
  // Buckets are cumulative with integer le bounds from hist_bucket_le.
  EXPECT_NE(out.find("hpsum_mpisim_msg_bytes_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpsum_mpisim_msg_bytes_bucket{le=\"7\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpsum_mpisim_msg_bytes_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpsum_mpisim_msg_bytes_sum 12\n"), std::string::npos);
  EXPECT_NE(out.find("hpsum_mpisim_msg_bytes_count 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE hpsum_core_block_limb_occupancy gauge\n"
                     "hpsum_core_block_limb_occupancy 6\n"),
            std::string::npos);
  // Every catalog entry gets a TYPE line even at zero.
  EXPECT_NE(out.find("# TYPE hpsum_core_reference_add_calls counter"),
            std::string::npos);
}

// --- lifecycle -------------------------------------------------------------

TEST(PulseLifecycle, ArmTickDisarmProducesStreamAndExposition) {
  if (!trace::enabled()) GTEST_SKIP() << "HPSUM_TRACE=OFF";
  const std::string dir = ::testing::TempDir();
  pulse::Config cfg;
  cfg.jsonl_path = dir + "/pulse_lifecycle.jsonl";
  cfg.prom_path = dir + "/pulse_lifecycle.prom";
  cfg.interval = std::chrono::milliseconds(5);

  ASSERT_TRUE(pulse::arm(cfg));
  EXPECT_TRUE(pulse::armed());
  EXPECT_FALSE(pulse::arm(cfg)) << "double-arm must be rejected";

  trace::count(trace::Counter::kScatterAddCalls, 10);
  trace::observe(trace::Hist::kMpisimMsgBytes, 64);
  trace::gauge_set(trace::Gauge::kAccLimbOccupancy, 6);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  pulse::disarm();
  EXPECT_FALSE(pulse::armed());
  EXPECT_GE(pulse::ticks(), 1u);
  pulse::disarm();  // idempotent

  const auto lines = read_lines(cfg.jsonl_path);
  ASSERT_GE(lines.size(), 2u) << "header + at least the final tick";
  EXPECT_NE(lines[0].find("\"hpsum_pulse\": 1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"enabled\": true"), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  const auto prom = read_lines(cfg.prom_path);
  ASSERT_FALSE(prom.empty());
  EXPECT_EQ(prom[0].rfind("# TYPE hpsum_", 0), 0u) << prom[0];

  // The sampler can be re-armed after a disarm.
  pulse::Config again = cfg;
  again.jsonl_path = dir + "/pulse_lifecycle2.jsonl";
  again.prom_path.clear();
  ASSERT_TRUE(pulse::arm(again));
  pulse::disarm();
  EXPECT_GE(read_lines(again.jsonl_path).size(), 2u);
}

TEST(PulseLifecycle, ArmFailsWhenStreamIsUnopenable) {
  pulse::Config cfg;
  cfg.jsonl_path = "/nonexistent-hpsum-dir/pulse.jsonl";
  EXPECT_FALSE(pulse::arm(cfg));
  EXPECT_FALSE(pulse::armed());
}

TEST(PulseLifecycle, DisabledBuildWritesHeaderOnlyStream) {
  if (trace::enabled()) GTEST_SKIP() << "covers -DHPSUM_TRACE=OFF only";
  pulse::Config cfg;
  cfg.jsonl_path = ::testing::TempDir() + "/pulse_disabled.jsonl";
  cfg.interval = std::chrono::milliseconds(1);
  EXPECT_FALSE(pulse::arm(cfg));
  EXPECT_FALSE(pulse::armed());
  EXPECT_EQ(pulse::ticks(), 0u);
  const auto lines = read_lines(cfg.jsonl_path);
  ASSERT_EQ(lines.size(), 1u) << "the header is the whole stream";
  EXPECT_NE(lines[0].find("\"enabled\": false"), std::string::npos);
  pulse::disarm();  // still safe
}

// --- concurrency (the TSan target) ----------------------------------------

// The sampler thread snapshots at 1 ms while four writer threads hammer the
// probes and two reader threads take their own snapshots. TSan proves the
// absence of data races; the asserts prove the absence of logical tearing:
// totals (counters, per-bucket histogram counts, count/sum) only grow, and
// a gauge read observes exactly a value some writer stored — never a
// half-updated word.
TEST(PulseConcurrency, SamplerVsProbeWritersVsSnapshotReaders) {
  if (!trace::enabled()) GTEST_SKIP() << "HPSUM_TRACE=OFF";
  constexpr std::uint64_t kPatternA = 0xAAAAAAAAAAAAAAAAull;
  constexpr std::uint64_t kPatternB = 0x5555555555555555ull;
  const std::uint64_t initial_gauge =
      trace::snapshot().gauge(trace::Gauge::kAccLimbOccupancy);

  pulse::Config cfg;
  cfg.jsonl_path = ::testing::TempDir() + "/pulse_tsan.jsonl";
  cfg.interval = std::chrono::milliseconds(1);
  ASSERT_TRUE(pulse::arm(cfg));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&stop, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        trace::count(trace::Counter::kScatterAddCalls);
        trace::observe(trace::Hist::kMpisimMsgBytes, i % 513);
        trace::gauge_set(trace::Gauge::kAccLimbOccupancy,
                         (i + static_cast<std::uint64_t>(w)) % 2 == 0
                             ? kPatternA
                             : kPatternB);
        ++i;
      }
    });
  }
  std::atomic<bool> monotone{true};
  std::atomic<bool> gauge_clean{true};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      trace::Snapshot prev;
      while (!stop.load(std::memory_order_relaxed)) {
        const trace::Snapshot cur = trace::snapshot();
        if (cur.value(trace::Counter::kScatterAddCalls) <
            prev.value(trace::Counter::kScatterAddCalls)) {
          monotone.store(false, std::memory_order_relaxed);
        }
        const auto& ch = cur.hist(trace::Hist::kMpisimMsgBytes);
        const auto& ph = prev.hist(trace::Hist::kMpisimMsgBytes);
        for (std::size_t b = 0; b < trace::kHistBuckets; ++b) {
          if (ch.buckets[b] < ph.buckets[b]) {
            monotone.store(false, std::memory_order_relaxed);
          }
        }
        if (ch.count < ph.count || ch.sum < ph.sum) {
          monotone.store(false, std::memory_order_relaxed);
        }
        const std::uint64_t g = cur.gauge(trace::Gauge::kAccLimbOccupancy);
        if (g != kPatternA && g != kPatternB && g != initial_gauge) {
          gauge_clean.store(false, std::memory_order_relaxed);
        }
        prev = cur;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  pulse::disarm();

  EXPECT_TRUE(monotone.load()) << "a snapshot observed a shrinking total";
  EXPECT_TRUE(gauge_clean.load()) << "a gauge read tore";
  EXPECT_GE(pulse::ticks(), 2u);
  const auto lines = read_lines(cfg.jsonl_path);
  ASSERT_GE(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
}

}  // namespace
