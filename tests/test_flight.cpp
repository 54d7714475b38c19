// hpsum_flight tests: arming semantics, ring capacity and drop-oldest
// accounting, ReductionScope id plumbing, collect()/last_k trimming, the
// Chrome trace-event JSON shape and its file export. Suites are
// named TraceFlight* so the TSan CI subset (ctest -R '...|Trace') picks
// them up. Assertions branch on trace::enabled() so the same source
// passes in HPSUM_TRACE=OFF builds, where the recorder never records.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "trace/flight.hpp"
#include "trace/trace.hpp"

namespace {

namespace trace = hpsum::trace;
namespace flight = hpsum::trace::flight;

// Arms for one test body and always disarms + clears on the way out so
// the global recorder state cannot leak between tests.
struct ArmedScope {
  ArmedScope() {
    flight::reset();
    trace::reset();
    flight::arm();
  }
  ~ArmedScope() {
    flight::disarm();
    flight::reset();
  }
};

[[nodiscard]] const flight::ThreadEvents* find_track(
    const std::vector<flight::ThreadEvents>& threads,
    std::string_view label) {
  for (const flight::ThreadEvents& te : threads) {
    if (te.track.label == label) return &te;
  }
  return nullptr;
}

static_assert(flight::pack_pair(3, 7) == ((3ull << 32) | 7ull));
static_assert(flight::pack_pair(1, 0x1'0000'0000ull) ==
                  ((1ull << 32) | 0xffffffffull),
              "low half saturates instead of bleeding into the high half");

TEST(TraceFlightArming, DisarmedByDefaultAndRecordsNothing) {
  flight::disarm();
  flight::reset();
  EXPECT_FALSE(flight::armed());
  flight::instant(flight::EventId::kStatusRaise, 1, 2);
  {
    const flight::Span s(flight::EventId::kMerge, 3, 4);
  }
  EXPECT_TRUE(flight::collect().empty());
}

TEST(TraceFlightArming, ArmDisarmToggleIsVisible) {
  const ArmedScope armed;
  if constexpr (trace::enabled()) {
    EXPECT_TRUE(flight::armed());
    flight::disarm();
    EXPECT_FALSE(flight::armed());
    flight::arm();
    EXPECT_TRUE(flight::armed());
  } else {
    // Compiled out: arm() is a no-op and armed() is constant false.
    EXPECT_FALSE(flight::armed());
  }
}

TEST(TraceFlightRecorder, SpanAndInstantRecordsCarryArgs) {
  const ArmedScope armed;
  flight::set_track("test", 7, 3);
  {
    const flight::Span span(flight::EventId::kMerge, 11, 22);
    flight::instant(flight::EventId::kStatusRaise, 1, 6);
  }
  const auto threads = flight::collect();
  if constexpr (trace::enabled()) {
    const flight::ThreadEvents* te = find_track(threads, "test");
    ASSERT_NE(te, nullptr);
    EXPECT_EQ(te->track.pid, 7);
    EXPECT_EQ(te->track.tid, 3);
    ASSERT_EQ(te->events.size(), 3u);  // B, i, E in program order
    const flight::Event& b = te->events[0];
    const flight::Event& i = te->events[1];
    const flight::Event& e = te->events[2];
    EXPECT_EQ(static_cast<flight::EventId>(b.id), flight::EventId::kMerge);
    EXPECT_EQ(static_cast<flight::Phase>(b.phase), flight::Phase::kBegin);
    EXPECT_EQ(b.arg0, 11u);
    EXPECT_EQ(b.arg1, 22u);
    EXPECT_EQ(static_cast<flight::EventId>(i.id),
              flight::EventId::kStatusRaise);
    EXPECT_EQ(static_cast<flight::Phase>(i.phase), flight::Phase::kInstant);
    EXPECT_EQ(static_cast<flight::Phase>(e.phase), flight::Phase::kEnd);
    EXPECT_EQ(e.arg0, 11u);  // span end repeats the begin args
    EXPECT_LE(b.ts_ns, i.ts_ns);
    EXPECT_LE(i.ts_ns, e.ts_ns);
  } else {
    EXPECT_TRUE(threads.empty());
  }
}

TEST(TraceFlightRecorder, RingDropsOldestAndCountsEveryLoss) {
  const ArmedScope armed;
  constexpr std::uint64_t kExtra = 100;
  const trace::Snapshot before = trace::snapshot();
  // A dedicated thread gets a fresh ring, so the drop count is exact.
  std::thread t([] {
    flight::set_track("ringtest", 0, 0);
    for (std::uint64_t i = 0; i < flight::kRingCapacity + kExtra; ++i) {
      flight::instant(flight::EventId::kStatusRaise, i, 0);
    }
  });
  t.join();
  const trace::Snapshot d = trace::snapshot().delta_since(before);
  const auto threads = flight::collect();
  if constexpr (trace::enabled()) {
    EXPECT_EQ(d.value(trace::Counter::kFlightDropped), kExtra);
    const flight::ThreadEvents* te = find_track(threads, "ringtest");
    ASSERT_NE(te, nullptr);
    ASSERT_EQ(te->events.size(), flight::kRingCapacity);
    // Drop-oldest: the first kExtra records are gone, the newest survive.
    EXPECT_EQ(te->events.front().arg0, kExtra);
    EXPECT_EQ(te->events.back().arg0, flight::kRingCapacity + kExtra - 1);
  } else {
    EXPECT_EQ(d.value(trace::Counter::kFlightDropped), 0u);
    EXPECT_TRUE(threads.empty());
  }
}

TEST(TraceFlightRecorder, CollectLastKKeepsTheNewestTail) {
  const ArmedScope armed;
  for (std::uint64_t i = 0; i < 10; ++i) {
    flight::instant(flight::EventId::kStatusRaise, i, 0);
  }
  const auto threads = flight::collect(/*last_k=*/4);
  if constexpr (trace::enabled()) {
    ASSERT_EQ(threads.size(), 1u);
    ASSERT_EQ(threads[0].events.size(), 4u);
    EXPECT_EQ(threads[0].events.front().arg0, 6u);
    EXPECT_EQ(threads[0].events.back().arg0, 9u);
  } else {
    EXPECT_TRUE(threads.empty());
  }
}

TEST(TraceFlightRecorder, ResetDropsRetainedEvents) {
  const ArmedScope armed;
  flight::instant(flight::EventId::kStatusRaise, 0, 1);
  std::thread([] {
    flight::instant(flight::EventId::kStatusRaise, 1, 1);
  }).join();  // retires into the registry
  if constexpr (trace::enabled()) {
    EXPECT_FALSE(flight::collect().empty());
  }
  flight::reset();
  EXPECT_TRUE(flight::collect().empty());
}

TEST(TraceFlightReduction, ScopePublishesAndRestoresAmbientId) {
  const ArmedScope armed;
  if constexpr (trace::enabled()) {
    EXPECT_EQ(flight::current_reduction_id(), 0u);
    std::uint64_t outer_id = 0;
    {
      const flight::ReductionScope outer(100);
      outer_id = outer.id();
      EXPECT_GT(outer_id, 0u);
      EXPECT_EQ(flight::current_reduction_id(), outer_id);
      {
        const flight::ReductionScope inner(10);
        EXPECT_EQ(inner.id(), outer_id + 1);  // monotone process-wide
        EXPECT_EQ(flight::current_reduction_id(), inner.id());
      }
      EXPECT_EQ(flight::current_reduction_id(), outer_id);
    }
    EXPECT_EQ(flight::current_reduction_id(), 0u);
    // Worker threads observe the driver's ambient id.
    const flight::ReductionScope driver(1);
    std::uint64_t seen = 0;
    std::thread([&seen] { seen = flight::current_reduction_id(); }).join();
    EXPECT_EQ(seen, driver.id());
  } else {
    const flight::ReductionScope scope(100);
    EXPECT_EQ(scope.id(), 0u);
    EXPECT_EQ(flight::current_reduction_id(), 0u);
  }
}

TEST(TraceFlightReduction, ScopeEmitsBeginEndWithItemCount) {
  const ArmedScope armed;
  std::uint64_t id = 0;
  {
    const flight::ReductionScope scope(4242);
    id = scope.id();
  }
  const auto threads = flight::collect();
  if constexpr (trace::enabled()) {
    ASSERT_EQ(threads.size(), 1u);
    ASSERT_EQ(threads[0].events.size(), 2u);
    EXPECT_EQ(static_cast<flight::Phase>(threads[0].events[0].phase),
              flight::Phase::kBegin);
    EXPECT_EQ(static_cast<flight::Phase>(threads[0].events[1].phase),
              flight::Phase::kEnd);
    for (const flight::Event& e : threads[0].events) {
      EXPECT_EQ(static_cast<flight::EventId>(e.id),
                flight::EventId::kReduction);
      EXPECT_EQ(e.arg0, id);
      EXPECT_EQ(e.arg1, 4242u);
    }
  } else {
    EXPECT_TRUE(threads.empty());
  }
}

TEST(TraceFlightReduction, StatusRaiseHookEmitsTaggedInstant) {
  const ArmedScope armed;
  const flight::ReductionScope scope(1);
  trace::count_status(hpsum::HpStatus::kInexact);
  const auto threads = flight::collect();
  if constexpr (trace::enabled()) {
    ASSERT_EQ(threads.size(), 1u);
    const flight::Event* raise = nullptr;
    for (const flight::Event& e : threads[0].events) {
      if (static_cast<flight::EventId>(e.id) == flight::EventId::kStatusRaise) {
        raise = &e;
      }
    }
    ASSERT_NE(raise, nullptr);
    EXPECT_EQ(raise->arg0,
              static_cast<std::uint64_t>(hpsum::HpStatus::kInexact));
    EXPECT_EQ(raise->arg1, scope.id());
  } else {
    EXPECT_TRUE(threads.empty());
  }
}

TEST(TraceFlightNames, EveryEventIdHasAStableDottedName) {
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < flight::kEventIdCount; ++i) {
    const std::string name(
        flight::event_name(static_cast<flight::EventId>(i)));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
    for (const std::string& other : seen) {
      EXPECT_NE(name, other) << "duplicate event name";
    }
    seen.push_back(name);
  }
  EXPECT_EQ(flight::event_name(flight::EventId::kMpiReduce), "mpi.reduce");
  EXPECT_EQ(flight::event_name(flight::EventId::kCount), "unknown");
}

// The JSON renderer takes explicit ThreadEvents, so its shape is testable
// identically in ON and OFF builds.
TEST(TraceFlightChrome, JsonCarriesMetadataLanesAndDecodedArgs) {
  std::vector<flight::ThreadEvents> threads(2);
  threads[0].track = {"mpisim", 0, 0};
  threads[1].track = {"mpisim", 1, 0};
  flight::Event b;
  b.ts_ns = 1234567;
  b.id = static_cast<std::uint16_t>(flight::EventId::kMpiReduce);
  b.phase = static_cast<std::uint16_t>(flight::Phase::kBegin);
  b.arg0 = 5;    // reduction id
  b.arg1 = 160;  // bytes
  flight::Event e = b;
  e.ts_ns = 2000000;
  e.phase = static_cast<std::uint16_t>(flight::Phase::kEnd);
  flight::Event send;
  send.id = static_cast<std::uint16_t>(flight::EventId::kMpiSend);
  send.phase = static_cast<std::uint16_t>(flight::Phase::kInstant);
  send.arg0 = flight::pack_pair(1, 0);    // rank 1 -> peer 0
  send.arg1 = flight::pack_pair(5, 160);  // reduction 5, 160 bytes
  threads[0].events = {b, e};
  threads[1].events = {send};

  const std::string json = flight::to_chrome_json(threads);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Distinct (label, pid) lanes get distinct synthetic Chrome pids.
  EXPECT_NE(json.find("\"name\": \"mpisim 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"mpisim 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  // ns timestamps become microseconds with a 3-digit fractional part.
  EXPECT_NE(json.find("\"ts\": 1234.567"), std::string::npos);
  // Args decode per the EventId contract.
  EXPECT_NE(json.find("\"reduction_id\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\": 160"), std::string::npos);
  EXPECT_NE(json.find("\"rank\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"peer\": 0"), std::string::npos);
  // Instants carry Chrome's scope field.
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
}

TEST(TraceFlightChrome, EmptyRecordingStillProducesWellFormedJson) {
  const std::string json = flight::to_chrome_json({});
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(json.find("]}"), std::string::npos);
}

TEST(TraceFlightExport, DumpChromeJsonFailurePathReturnsFalse) {
  const ArmedScope armed;
  EXPECT_FALSE(flight::dump_chrome_json("/nonexistent-dir/flight.json"));
  // A directory path cannot be opened for writing either.
  EXPECT_FALSE(flight::dump_chrome_json(::testing::TempDir()));
}

}  // namespace
