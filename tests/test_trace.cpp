// hptrace tests: catalog stability, probe accounting, differential
// agreement between the CAS and fetch_add adders, tear-free concurrent
// snapshots (TraceConcurrency runs under TSan — see .github/workflows), and
// the JSON export surface. Every assertion branches on
// trace::enabled() so the same source compiles and passes in
// HPSUM_TRACE=OFF builds, where all counters must read zero.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hp_atomic.hpp"
#include "core/hp_fixed.hpp"
#include "trace/trace.hpp"

namespace {

using hpsum::HpAtomic;
using hpsum::HpFixed;
using hpsum::HpStatus;
namespace trace = hpsum::trace;

trace::Snapshot delta_of(const trace::Snapshot& before) {
  return trace::snapshot().delta_since(before);
}

// When the layer is compiled out every counter must be exactly zero; when
// it is compiled in the expected count must match exactly (tests here are
// single-threaded unless stated).
void expect_count(const trace::Snapshot& delta, trace::Counter c,
                  std::uint64_t expected) {
  if constexpr (trace::enabled()) {
    EXPECT_EQ(delta.value(c), expected) << trace::counter_name(c);
  } else {
    EXPECT_EQ(delta.value(c), 0u) << trace::counter_name(c);
  }
}

TEST(TraceCatalog, NamesAreStableUniqueAndDotted) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
    const auto c = static_cast<trace::Counter>(i);
    const std::string name(trace::counter_name(c));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_NE(name.find('.'), std::string::npos) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
  }
  // The catalog holds exactly what a health rule, bench/e2e or a
  // behaviour test reads; adding a counter means adding its reader.
  const std::set<std::string> expected = {
      "core.scatter_add.calls",
      "core.reference_add.calls",
      "core.block.deposits",
      "core.block.normalizes",
      "core.block.scalar_fallbacks",
      "core.block.simd_batches",
      "core.block.simd_deposits",
      "core.block.simd_punts",
      "core.block.chunk_deposits",
      "core.status_raise.convert_overflow",
      "core.status_raise.add_overflow",
      "core.status_raise.to_double_overflow",
      "core.status_raise.inexact",
      "core.status_raise.to_double_inexact",
      "core.status_raise.invalid_op",
      "atomic.cas.adds",
      "atomic.cas.retries",
      "mpisim.wire.raw_bytes",
      "mpisim.wire.encoded_bytes",
      "engine.snapshot.count",
      "engine.snapshot.retries",
      "trace.flight.dropped",
  };
  EXPECT_EQ(trace::kCounterCount, 22u);
  EXPECT_EQ(seen, expected);
}

TEST(TraceCatalog, CounterFromNameRoundTripsEveryCounter) {
  for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
    const auto c = static_cast<trace::Counter>(i);
    const auto found = trace::counter_from_name(trace::counter_name(c));
    ASSERT_TRUE(found.has_value()) << trace::counter_name(c);
    EXPECT_EQ(*found, c) << trace::counter_name(c);
  }
  EXPECT_FALSE(trace::counter_from_name("no.such.counter").has_value());
  EXPECT_FALSE(trace::counter_from_name("").has_value());
  // Prefixes of real names must not resolve.
  EXPECT_FALSE(trace::counter_from_name("core.scatter_add").has_value());
}

TEST(TraceCatalog, SnapshotValueByNameMatchesValueByEnum) {
  trace::count(trace::Counter::kMpisimWireRawBytes, 2);
  const trace::Snapshot snap = trace::snapshot();
  const auto by_name = snap.value("mpisim.wire.raw_bytes");
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(*by_name, snap.value(trace::Counter::kMpisimWireRawBytes));
  EXPECT_FALSE(snap.value("bogus.name").has_value());
}

TEST(TraceProbes, BumpAndCountAreExactSingleThreaded) {
  const trace::Snapshot before = trace::snapshot();
  trace::bump(trace::Counter::kMpisimWireRawBytes);
  trace::count(trace::Counter::kMpisimWireRawBytes, 4);
  const trace::Snapshot d = delta_of(before);
  expect_count(d, trace::Counter::kMpisimWireRawBytes, 5);
  expect_count(d, trace::Counter::kMpisimWireEncodedBytes, 0);
}

TEST(TraceProbes, ScatterAddCountsDepositsAndStatusRaises) {
  const trace::Snapshot before = trace::snapshot();
  HpFixed<4, 2> acc;
  for (int i = 0; i < 100; ++i) acc += 1.25;
  acc += std::ldexp(1.0, -300);  // entirely sub-lsb: kInexact
  const trace::Snapshot d = delta_of(before);
  expect_count(d, trace::Counter::kScatterAddCalls, 101);
  expect_count(d, trace::Counter::kStatusInexact, 1);
  expect_count(d, trace::Counter::kReferenceAddCalls, 0);
  EXPECT_TRUE(hpsum::has(acc.status(), HpStatus::kInexact));
}

TEST(TraceDifferential, CasAndFetchAddAddersAgreeOnIdenticalData) {
  // The two adder flavors must do the same accounting on the same data:
  // CAS-loop traffic only from the CAS adder, identical conversion-side
  // counters, and identical status raises — and of course identical final
  // values.
  std::vector<double> xs;
  for (int i = 0; i < 64; ++i) xs.push_back((i % 2 ? -1.0 : 1.0) * (i + 0.5));

  HpAtomic<3, 1> cas_acc;
  const trace::Snapshot before_cas = trace::snapshot();
  for (const double x : xs) cas_acc.add(HpFixed<3, 1>(x));
  const trace::Snapshot d_cas = delta_of(before_cas);

  HpAtomic<3, 1> fa_acc;
  const trace::Snapshot before_fa = trace::snapshot();
  for (const double x : xs) fa_acc.add_fetch_add(HpFixed<3, 1>(x));
  const trace::Snapshot d_fa = delta_of(before_fa);

  expect_count(d_cas, trace::Counter::kAtomicCasAdds, xs.size());
  expect_count(d_fa, trace::Counter::kAtomicCasAdds, 0);
  // Uncontended CAS never retries.
  expect_count(d_cas, trace::Counter::kAtomicCasRetries, 0);
  // Conversion-side and status-raise counters agree run-to-run.
  EXPECT_EQ(d_cas.value(trace::Counter::kScatterAddCalls),
            d_fa.value(trace::Counter::kScatterAddCalls));
  EXPECT_EQ(d_cas.value(trace::Counter::kStatusAddOverflow),
            d_fa.value(trace::Counter::kStatusAddOverflow));
  EXPECT_EQ(d_cas.value(trace::Counter::kStatusInexact),
            d_fa.value(trace::Counter::kStatusInexact));
  EXPECT_EQ(cas_acc.load(), fa_acc.load());
  EXPECT_EQ(cas_acc.status(), fa_acc.status());
}

TEST(TraceConcurrency, RetiredThreadCountsSurviveInSnapshots) {
  const trace::Snapshot before = trace::snapshot();
  std::thread t([] {
    for (int i = 0; i < 1000; ++i) {
      trace::count(trace::Counter::kMpisimWireRawBytes, 8);
    }
  });
  t.join();
  const trace::Snapshot d = delta_of(before);
  expect_count(d, trace::Counter::kMpisimWireRawBytes, 8000);
}

TEST(TraceConcurrency, SnapshotUnderHammeringIsMonotoneAndComplete) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  const trace::Snapshot before = trace::snapshot();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      HpAtomic<2, 1> local;
      for (int i = 0; i < kPerThread; ++i) {
        trace::count(trace::Counter::kMpisimWireEncodedBytes);
        local.add(HpFixed<2, 1>(1.0));
      }
    });
  }
  // Hammer snapshots concurrently: every counter must be monotone
  // non-decreasing across successive reads (tear-free shards).
  trace::Snapshot prev = trace::snapshot();
  for (int round = 0; round < 200; ++round) {
    const trace::Snapshot cur = trace::snapshot();
    for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
      EXPECT_GE(cur.values[i], prev.values[i])
          << trace::counter_name(static_cast<trace::Counter>(i));
    }
    prev = cur;
  }
  for (std::thread& w : workers) w.join();
  const trace::Snapshot d = delta_of(before);
  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  expect_count(d, trace::Counter::kMpisimWireEncodedBytes, total);
  expect_count(d, trace::Counter::kAtomicCasAdds, total);
}

TEST(TraceExport, JsonCarriesEveryCounter) {
  const std::string json = trace::snapshot().to_json();
  EXPECT_NE(json.find("\"hpsum_trace\": 3"), std::string::npos);
  EXPECT_NE(json.find(trace::enabled() ? "\"enabled\": true"
                                       : "\"enabled\": false"),
            std::string::npos);
  for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
    const auto name =
        std::string(trace::counter_name(static_cast<trace::Counter>(i)));
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
  }
  // Counters are the only metric kind.
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
}

TEST(TraceExport, WriteJsonToFileAndFailurePath) {
  const std::string path = ::testing::TempDir() + "hpsum_trace_test.json";
  ASSERT_TRUE(trace::write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 14, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"hpsum_trace\": 3"), std::string::npos);
  EXPECT_FALSE(trace::write_json("/nonexistent-dir/trace.json"));
  // The failed write must not leave a file behind.
  EXPECT_EQ(std::fopen("/nonexistent-dir/trace.json", "rb"), nullptr);
  // A directory path cannot be opened for writing either.
  EXPECT_FALSE(trace::write_json(::testing::TempDir()));
  // A full device accepts the open and fails the write or the close: that
  // is a failed export too, not a silently empty file.
  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    EXPECT_FALSE(trace::write_json("/dev/full"));
  }
}

TEST(TraceDeltas, DeltaSinceSaturatesInsteadOfWrapping) {
  trace::Snapshot a, b;
  a.values[0] = 10;
  b.values[0] = 3;  // "earlier" is ahead (e.g. a reset happened in between)
  EXPECT_EQ(b.delta_since(a).values[0], 0u);
  EXPECT_EQ(a.delta_since(b).values[0], 7u);
}

TEST(TraceReset, ZeroesLiveAndRetiredTotals) {
  trace::count(trace::Counter::kMpisimWireRawBytes, 3);
  std::thread([] { trace::count(trace::Counter::kMpisimWireRawBytes); })
      .join();  // lands in the retired totals
  trace::reset();
  const trace::Snapshot snap = trace::snapshot();
  for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
    EXPECT_EQ(snap.values[i], 0u)
        << trace::counter_name(static_cast<trace::Counter>(i));
  }
}

}  // namespace
