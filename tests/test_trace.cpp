// hptrace tests: catalog stability, probe accounting, differential
// agreement between the CAS and fetch_add adders, tear-free concurrent
// snapshots (TraceConcurrency runs under TSan — see .github/workflows), and
// the JSON/CSV export surface. Every assertion branches on
// trace::enabled() so the same source compiles and passes in
// HPSUM_TRACE=OFF builds, where all counters must read zero.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "backends/scaling.hpp"
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

// Same contract for one histogram bucket.
void expect_bucket(const trace::Snapshot& delta, trace::Hist h,
                   std::size_t bucket, std::uint64_t expected) {
  if constexpr (trace::enabled()) {
    EXPECT_EQ(delta.hist(h).buckets[bucket], expected)
        << trace::hist_name(h) << " bucket " << bucket;
  } else {
    EXPECT_EQ(delta.hist(h).buckets[bucket], 0u) << trace::hist_name(h);
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
  // Spot-check the names the metrics-smoke schema validation relies on.
  EXPECT_EQ(trace::counter_name(trace::Counter::kScatterAddCalls),
            "core.scatter_add.calls");
  EXPECT_EQ(trace::counter_name(trace::Counter::kAtomicCasRetries),
            "atomic.cas.retries");
  EXPECT_EQ(trace::counter_name(trace::Counter::kStatusInexact),
            "core.status_raise.inexact");
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

TEST(TraceCatalog, HistAndGaugeCatalogsAreUniqueAndRoundTrip) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < trace::kHistCount; ++i) {
    const auto h = static_cast<trace::Hist>(i);
    const std::string name(trace::hist_name(h));
    EXPECT_NE(name.find('.'), std::string::npos) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
    const auto found = trace::hist_from_name(name);
    ASSERT_TRUE(found.has_value()) << name;
    EXPECT_EQ(*found, h) << name;
  }
  for (std::size_t i = 0; i < trace::kGaugeCount; ++i) {
    const auto g = static_cast<trace::Gauge>(i);
    const std::string name(trace::gauge_name(g));
    EXPECT_NE(name.find('.'), std::string::npos) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
    const auto found = trace::gauge_from_name(name);
    ASSERT_TRUE(found.has_value()) << name;
    EXPECT_EQ(*found, g) << name;
  }
  // The three catalogs must not leak into each other's lookups; the
  // graduated carry-chain counter names must stay retired.
  EXPECT_FALSE(trace::hist_from_name("core.scatter_add.calls").has_value());
  EXPECT_FALSE(trace::gauge_from_name("core.scatter_add.carry_chain").has_value());
  EXPECT_FALSE(
      trace::counter_from_name("core.scatter_add.carry_chain_len1").has_value());
  EXPECT_FALSE(trace::hist_from_name("").has_value());
  EXPECT_FALSE(trace::gauge_from_name("core.block.limb").has_value());
}

TEST(TraceHistogram, BucketSchemeIsLog2WithZeroBucketAndTailClamp) {
  EXPECT_EQ(trace::hist_bucket_index(0), 0u);
  EXPECT_EQ(trace::hist_bucket_index(1), 1u);
  EXPECT_EQ(trace::hist_bucket_index(2), 2u);
  EXPECT_EQ(trace::hist_bucket_index(3), 2u);
  EXPECT_EQ(trace::hist_bucket_index(4), 3u);
  EXPECT_EQ(trace::hist_bucket_index(255), 8u);
  EXPECT_EQ(trace::hist_bucket_index(256), 9u);
  // The tail bucket absorbs everything bit_width can push past the end.
  EXPECT_EQ(trace::hist_bucket_index(~std::uint64_t{0}),
            trace::kHistBuckets - 1);
  static_assert(trace::hist_bucket_index(7) == 3);
  // Each value lands in the bucket whose inclusive bound covers it and
  // whose predecessor's bound does not.
  for (std::size_t b = 1; b + 1 < trace::kHistBuckets; ++b) {
    EXPECT_EQ(trace::hist_bucket_index(trace::hist_bucket_le(b)), b);
    EXPECT_EQ(trace::hist_bucket_index(trace::hist_bucket_le(b - 1) + 1), b);
  }
  EXPECT_EQ(trace::hist_bucket_le(0), 0u);
  EXPECT_EQ(trace::hist_bucket_le(trace::kHistBuckets - 1), ~std::uint64_t{0});
}

TEST(TraceHistogram, ObserveAccountsBucketsCountAndSumExactly) {
  const trace::Snapshot before = trace::snapshot();
  trace::observe(trace::Hist::kMpisimMsgBytes, 0);
  trace::observe(trace::Hist::kMpisimMsgBytes, 5);    // bucket 3
  trace::observe(trace::Hist::kMpisimMsgBytes, 7);    // bucket 3
  trace::observe(trace::Hist::kMpisimMsgBytes, 100);  // bucket 7
  const trace::Snapshot d = delta_of(before);
  expect_bucket(d, trace::Hist::kMpisimMsgBytes, 0, 1);
  expect_bucket(d, trace::Hist::kMpisimMsgBytes, 3, 2);
  expect_bucket(d, trace::Hist::kMpisimMsgBytes, 7, 1);
  expect_bucket(d, trace::Hist::kMpisimMsgBytes, 5, 0);
  if constexpr (trace::enabled()) {
    EXPECT_EQ(d.hist(trace::Hist::kMpisimMsgBytes).count, 4u);
    EXPECT_EQ(d.hist(trace::Hist::kMpisimMsgBytes).sum, 112u);
  } else {
    EXPECT_EQ(d.hist(trace::Hist::kMpisimMsgBytes).count, 0u);
    EXPECT_EQ(d.hist(trace::Hist::kMpisimMsgBytes).sum, 0u);
  }
}

TEST(TraceGauge, GaugeIsLastWriteWins) {
  trace::gauge_set(trace::Gauge::kAccLimbOccupancy, 6);
  trace::gauge_set(trace::Gauge::kAccLimbOccupancy, 9);
  const trace::Snapshot snap = trace::snapshot();
  if constexpr (trace::enabled()) {
    EXPECT_EQ(snap.gauge(trace::Gauge::kAccLimbOccupancy), 9u);
  } else {
    EXPECT_EQ(snap.gauge(trace::Gauge::kAccLimbOccupancy), 0u);
  }
  trace::reset();
  EXPECT_EQ(trace::snapshot().gauge(trace::Gauge::kAccLimbOccupancy), 0u);
}

TEST(TraceCatalog, SnapshotValueByNameMatchesValueByEnum) {
  trace::count(trace::Counter::kMpisimMessages, 2);
  const trace::Snapshot snap = trace::snapshot();
  const auto by_name = snap.value("mpisim.messages");
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(*by_name, snap.value(trace::Counter::kMpisimMessages));
  EXPECT_FALSE(snap.value("bogus.name").has_value());
}

TEST(TraceSaturation, SaturatingNsClampsNegativeNanAndHuge) {
  EXPECT_EQ(trace::saturating_ns(0.0), 0u);
  EXPECT_EQ(trace::saturating_ns(-1.0), 0u);
  EXPECT_EQ(trace::saturating_ns(-1e-12), 0u);
  EXPECT_EQ(trace::saturating_ns(std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(trace::saturating_ns(-std::numeric_limits<double>::infinity()),
            0u);
  EXPECT_EQ(trace::saturating_ns(1.5), 1'500'000'000u);
  // Anything at or beyond 2^64 ns saturates instead of wrapping (the
  // undefined double->u64 cast the old trace_point performed).
  EXPECT_EQ(trace::saturating_ns(1e30), ~std::uint64_t{0});
  EXPECT_EQ(trace::saturating_ns(std::numeric_limits<double>::infinity()),
            ~std::uint64_t{0});
  static_assert(trace::saturating_ns(-5.0) == 0);
  static_assert(trace::saturating_ns(2.0) == 2'000'000'000ull);
}

TEST(TraceSaturation, TracePointWithBadClockDeltasCountsZeroNs) {
  // Regression: a negative or NaN busy total (misbehaving clock) must not
  // wrap into a huge ns counter value — it clamps to zero.
  const trace::Snapshot before = trace::snapshot();
  hpsum::backends::detail::trace_point(
      -1.0, std::numeric_limits<double>::quiet_NaN());
  const trace::Snapshot d = delta_of(before);
  expect_count(d, trace::Counter::kBackendReductions, 1);
  expect_count(d, trace::Counter::kBackendBusyNs, 0);
  expect_count(d, trace::Counter::kBackendMergeNs, 0);
}

TEST(TraceProbes, BumpAndCountAreExactSingleThreaded) {
  const trace::Snapshot before = trace::snapshot();
  trace::bump(trace::Counter::kMpisimMessages);
  trace::count(trace::Counter::kMpisimMessages, 4);
  const trace::Snapshot d = delta_of(before);
  expect_count(d, trace::Counter::kMpisimMessages, 5);
  expect_count(d, trace::Counter::kMpisimBytesSent, 0);
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

TEST(TraceProbes, CarryChainHistogramBucketsExactLengths) {
  // Hand-built accumulators whose low limbs are all-ones force the carry
  // past the two deposit limbs by an exact, known distance. Chain length L
  // lands in log2 bucket hist_bucket_index(L).
  constexpr auto kChain = trace::Hist::kScatterCarryChain;
  {
    HpFixed<4, 2> acc;           // limbs [0..1] integer, [2..3] fraction
    acc.limbs()[2] = ~0ull;      // fraction part = 1 - 2^-128
    acc.limbs()[3] = ~0ull;
    const trace::Snapshot before = trace::snapshot();
    acc += std::ldexp(1.0, -128);  // lsb deposit wraps both fraction limbs
    const trace::Snapshot d = delta_of(before);
    expect_bucket(d, kChain, trace::hist_bucket_index(1), 1);  // length 1
    expect_bucket(d, kChain, trace::hist_bucket_index(2), 0);
    if constexpr (trace::enabled()) {
      EXPECT_EQ(d.hist(kChain).count, 1u);
      EXPECT_EQ(d.hist(kChain).sum, 1u);
    }
    EXPECT_EQ(acc.to_double(), 1.0);
  }
  {
    HpFixed<4, 2> acc;
    acc.limbs()[1] = ~0ull;
    acc.limbs()[2] = ~0ull;
    acc.limbs()[3] = ~0ull;
    const trace::Snapshot before = trace::snapshot();
    acc += std::ldexp(1.0, -128);  // carry travels into the top limb
    const trace::Snapshot d = delta_of(before);
    expect_bucket(d, kChain, trace::hist_bucket_index(2), 1);  // length 2
    expect_bucket(d, kChain, trace::hist_bucket_index(1), 0);
    if constexpr (trace::enabled()) {
      EXPECT_EQ(d.hist(kChain).sum, 2u);
    }
  }
  {
    HpFixed<4, 2> acc;  // an in-place deposit with no onward carry
    const trace::Snapshot before = trace::snapshot();
    acc += 1.0;
    const trace::Snapshot d = delta_of(before);
    expect_count(d, trace::Counter::kScatterAddCalls, 1);
    // Length 0 is a real observation now (bucket 0), not an untracked gap.
    expect_bucket(d, kChain, 0, 1);
    expect_bucket(d, kChain, 1, 0);
    if constexpr (trace::enabled()) {
      EXPECT_EQ(d.hist(kChain).count, 1u);
      EXPECT_EQ(d.hist(kChain).sum, 0u);
    }
  }
}

TEST(TraceDifferential, CasAndFetchAddAddersAgreeOnIdenticalData) {
  // The two adder flavors must do the same accounting on the same data:
  // one adder-traffic count per add, identical conversion-side counters,
  // and identical status raises — and of course identical final values.
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
  expect_count(d_cas, trace::Counter::kAtomicFetchAddAdds, 0);
  expect_count(d_fa, trace::Counter::kAtomicFetchAddAdds, xs.size());
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
      trace::count(trace::Counter::kPhisimOffloads);
      trace::observe(trace::Hist::kMpisimMsgBytes, 8);
    }
  });
  t.join();
  const trace::Snapshot d = delta_of(before);
  expect_count(d, trace::Counter::kPhisimOffloads, 1000);
  expect_bucket(d, trace::Hist::kMpisimMsgBytes, trace::hist_bucket_index(8),
                1000);
  if constexpr (trace::enabled()) {
    EXPECT_EQ(d.hist(trace::Hist::kMpisimMsgBytes).sum, 8000u);
  }
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
        trace::count(trace::Counter::kCudasimLaunches);
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
  expect_count(d, trace::Counter::kCudasimLaunches, total);
  expect_count(d, trace::Counter::kAtomicCasAdds, total);
}

TEST(TraceExport, JsonAndCsvCarryEveryCounter) {
  const trace::Snapshot snap = trace::snapshot();
  const std::string json = snap.to_json();
  const std::string csv = snap.to_csv();
  EXPECT_NE(json.find("\"hpsum_trace\": 2"), std::string::npos);
  EXPECT_NE(json.find(trace::enabled() ? "\"enabled\": true"
                                       : "\"enabled\": false"),
            std::string::npos);
  EXPECT_EQ(csv.compare(0, 14, "counter,value\n"), 0);
  for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
    const auto name =
        std::string(trace::counter_name(static_cast<trace::Counter>(i)));
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
    EXPECT_NE(csv.find('\n' + name + ','), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  for (std::size_t i = 0; i < trace::kHistCount; ++i) {
    const auto name = std::string(trace::hist_name(static_cast<trace::Hist>(i)));
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
  }
  for (std::size_t i = 0; i < trace::kGaugeCount; ++i) {
    const auto name =
        std::string(trace::gauge_name(static_cast<trace::Gauge>(i)));
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
  }
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
  EXPECT_NE(content.find("\"hpsum_trace\": 2"), std::string::npos);
  EXPECT_FALSE(trace::write_json("/nonexistent-dir/trace.json"));
  // The failed write must not leave a file behind.
  EXPECT_EQ(std::fopen("/nonexistent-dir/trace.json", "rb"), nullptr);
  // A directory path cannot be opened for writing either.
  EXPECT_FALSE(trace::write_json(::testing::TempDir()));
}

TEST(TraceExport, CsvSchemaIsExactlyHeaderPlusOneRowPerCounter) {
  const std::string csv = trace::snapshot().to_csv();
  // Line 0 is the fixed header; lines 1..kCounterCount are "name,value" in
  // catalog order; nothing follows the final newline.
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t nl = csv.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "csv must end with a newline";
    lines.push_back(csv.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 1 + trace::kCounterCount);
  EXPECT_EQ(lines[0], "counter,value");
  for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
    const std::string& row = lines[i + 1];
    const auto c = static_cast<trace::Counter>(i);
    const std::string name(trace::counter_name(c));
    ASSERT_GT(row.size(), name.size() + 1) << row;
    EXPECT_EQ(row.compare(0, name.size() + 1, name + ','), 0) << row;
    const std::string value = row.substr(name.size() + 1);
    EXPECT_FALSE(value.empty()) << row;
    for (const char ch : value) {
      EXPECT_TRUE(ch >= '0' && ch <= '9') << row;
    }
  }
}

TEST(TraceDeltas, DeltaSinceSaturatesInsteadOfWrapping) {
  trace::Snapshot a, b;
  a.values[0] = 10;
  b.values[0] = 3;  // "earlier" is ahead (e.g. a reset happened in between)
  EXPECT_EQ(b.delta_since(a).values[0], 0u);
  EXPECT_EQ(a.delta_since(b).values[0], 7u);
  // Histogram buckets/counts/sums saturate like counters.
  a.hists[0].buckets[5] = 4;
  a.hists[0].count = 4;
  a.hists[0].sum = 100;
  b.hists[0].buckets[5] = 1;
  b.hists[0].count = 1;
  b.hists[0].sum = 130;
  EXPECT_EQ(a.delta_since(b).hists[0].buckets[5], 3u);
  EXPECT_EQ(a.delta_since(b).hists[0].count, 3u);
  EXPECT_EQ(a.delta_since(b).hists[0].sum, 0u);  // saturates, no wrap
  EXPECT_EQ(b.delta_since(a).hists[0].buckets[5], 0u);
  // Gauges are levels: a delta carries the *current* reading, undiffed.
  a.gauges[0] = 7;
  b.gauges[0] = 9;
  EXPECT_EQ(a.delta_since(b).gauges[0], 7u);
  EXPECT_EQ(b.delta_since(a).gauges[0], 9u);
}

TEST(TraceReset, ZeroesLiveAndRetiredTotals) {
  trace::count(trace::Counter::kMpisimReductions, 3);
  trace::observe(trace::Hist::kMpisimMsgBytes, 64);
  trace::gauge_set(trace::Gauge::kAccLimbOccupancy, 5);
  trace::reset();
  const trace::Snapshot snap = trace::snapshot();
  for (std::size_t i = 0; i < trace::kCounterCount; ++i) {
    EXPECT_EQ(snap.values[i], 0u)
        << trace::counter_name(static_cast<trace::Counter>(i));
  }
  for (std::size_t h = 0; h < trace::kHistCount; ++h) {
    EXPECT_EQ(snap.hists[h].count, 0u);
    EXPECT_EQ(snap.hists[h].sum, 0u);
    for (const std::uint64_t b : snap.hists[h].buckets) EXPECT_EQ(b, 0u);
  }
  for (std::size_t g = 0; g < trace::kGaugeCount; ++g) {
    EXPECT_EQ(snap.gauges[g], 0u);
  }
}

}  // namespace
