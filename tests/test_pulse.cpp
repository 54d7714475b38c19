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

// --- render helpers (build-independent) -----------------------------------

TEST(PulseRender, HeaderCarriesVersionEnabledIntervalEpoch) {
  pulse::Config cfg;
  cfg.interval = std::chrono::milliseconds(125);
  const std::string h = pulse::jsonl_header(cfg, 1234);
  EXPECT_NE(h.find("\"hpsum_pulse\": 2"), std::string::npos) << h;
  EXPECT_NE(h.find("\"interval_ms\": 125"), std::string::npos) << h;
  EXPECT_NE(h.find("\"epoch_ms\": 1234"), std::string::npos) << h;
  const char* want =
      trace::enabled() ? "\"enabled\": true" : "\"enabled\": false";
  EXPECT_NE(h.find(want), std::string::npos) << h;
  EXPECT_EQ(h.front(), '{');
  EXPECT_EQ(h.back(), '}');
}

TEST(PulseRender, TickEmitsNonzeroCounterDeltasOnly) {
  trace::Snapshot d;
  d.values[idx(trace::Counter::kScatterAddCalls)] = 3;
  d.values[idx(trace::Counter::kBlockDeposits)] = 8;

  const std::string line = pulse::jsonl_tick(d, 999, 7);
  EXPECT_EQ(line,
            "{\"seq\": 7, \"ts_ms\": 999, \"counters\": "
            "{\"core.scatter_add.calls\": 3, \"core.block.deposits\": 8}}");
  // An all-zero delta still renders a well-formed, empty tick.
  EXPECT_EQ(pulse::jsonl_tick(trace::Snapshot{}, 5, 1),
            "{\"seq\": 1, \"ts_ms\": 5, \"counters\": {}}");
}

// --- lifecycle -------------------------------------------------------------

TEST(PulseLifecycle, ArmTickDisarmProducesStreamAndRearms) {
  if (!trace::enabled()) GTEST_SKIP() << "HPSUM_TRACE=OFF";
  const std::string dir = ::testing::TempDir();
  pulse::Config cfg;
  cfg.jsonl_path = dir + "/pulse_lifecycle.jsonl";
  cfg.interval = std::chrono::milliseconds(5);

  ASSERT_TRUE(pulse::arm(cfg));
  EXPECT_TRUE(pulse::armed());
  EXPECT_FALSE(pulse::arm(cfg)) << "double-arm must be rejected";

  trace::count(trace::Counter::kScatterAddCalls, 10);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  pulse::disarm();
  EXPECT_FALSE(pulse::armed());
  EXPECT_GE(pulse::ticks(), 1u);
  pulse::disarm();  // idempotent

  const auto lines = read_lines(cfg.jsonl_path);
  ASSERT_GE(lines.size(), 2u) << "header + at least the final tick";
  EXPECT_NE(lines[0].find("\"hpsum_pulse\": 2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"enabled\": true"), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }

  // The sampler can be re-armed after a disarm.
  pulse::Config again = cfg;
  again.jsonl_path = dir + "/pulse_lifecycle2.jsonl";
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
// every counter total only grows.
TEST(PulseConcurrency, SamplerVsProbeWritersVsSnapshotReaders) {
  if (!trace::enabled()) GTEST_SKIP() << "HPSUM_TRACE=OFF";
  pulse::Config cfg;
  cfg.jsonl_path = ::testing::TempDir() + "/pulse_tsan.jsonl";
  cfg.interval = std::chrono::milliseconds(1);
  ASSERT_TRUE(pulse::arm(cfg));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        trace::count(trace::Counter::kScatterAddCalls);
        trace::count(trace::Counter::kMpisimWireRawBytes, 64);
      }
    });
  }
  std::atomic<bool> monotone{true};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      trace::Snapshot prev;
      while (!stop.load(std::memory_order_relaxed)) {
        const trace::Snapshot cur = trace::snapshot();
        for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
          if (cur.values[i] < prev.values[i]) {
            monotone.store(false, std::memory_order_relaxed);
          }
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
  EXPECT_GE(pulse::ticks(), 2u);
  const auto lines = read_lines(cfg.jsonl_path);
  ASSERT_GE(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
}

}  // namespace
