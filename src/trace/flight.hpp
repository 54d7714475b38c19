// hpsum_flight — an event-level flight recorder for the HP reduction stack.
//
// hpsum_trace (trace.hpp) answers "how much happened": counts and summed
// nanoseconds. It cannot answer "when, in what order, on which PE" — which
// is exactly the information needed to debug a cross-backend divergence or
// a modeled-scaling anomaly. This layer is the second half of the pair:
// per-thread ring buffers of fixed-size binary event records that can be
// exported as a Chrome trace-event timeline (Perfetto / chrome://tracing)
// or handed to src/audit as the "last K events per thread" section of a
// first-divergence forensic bundle.
//
// Design:
//   - Fixed-size 32-byte records: steady-clock nanosecond timestamp, event
//     id, phase (begin/end/instant), and two u64 arguments whose meaning is
//     per-event (see EventId). docs/OBSERVABILITY.md documents the
//     taxonomy and the binary layout.
//   - One lock-free ring per thread (kRingCapacity records), written only
//     by the owning thread as relaxed atomic words — no locks, no
//     cross-thread contention on the hot path. When the ring wraps, the
//     oldest record is overwritten (drop-oldest) and the
//     `trace.flight.dropped` counter is bumped, so truncation is visible
//     in the metrics export rather than silent.
//   - Runtime-armable: the recorder is OFF by default; arm() / the
//     HPSUM_FLIGHT environment variable / a bench harness's --flight flag
//     turn it on. Disarmed, every probe is one relaxed atomic load and a
//     predicted-not-taken branch.
//   - Compiled out entirely under -DHPSUM_TRACE=OFF (HPSUM_TRACE_ENABLED=0):
//     probes become empty expressions, armed() is constant false, and the
//     dump API stays linkable but exports an empty (still well-formed)
//     trace.
//   - Threads that exit retire their ring into the registry (events are
//     copied out), so short-lived mpisim ranks and jthread PEs still appear
//     in the dump.
//
// Correlation: top-level drivers open a ReductionScope, which allocates a
// process-wide monotone reduction id, publishes it as the ambient id, and
// brackets the run with kReduction begin/end events. Worker-side probes
// (PE busy spans, mpisim send/recv/reduce, cudasim launches) tag their
// events with current_reduction_id(), so one timeline row per rank/PE can
// be re-joined into one logical reduction. The ambient id is process-global
// by design — the workers of a reduction are different threads from the
// driver — so concurrent *top-level* drivers would interleave ids; open
// scopes only from one driver thread at a time (every harness here does).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "trace/trace.hpp"

namespace hpsum::trace::flight {

/// The event taxonomy. Stable names (see event_name) appear in the Chrome
/// export; the two argument slots are per-event:
enum class EventId : std::uint16_t {
  kReduction = 0,  ///< span: a top-level reduction. arg0=reduction id, arg1=summand count
  kLocalReduce,    ///< span: one thread's local reduce_hp. arg0=reduction id, arg1=count
  kPeBusy,         ///< span: one PE's accumulate loop. arg0=reduction id, arg1=slice elements
  kMerge,          ///< span: master partial combine. arg0=reduction id, arg1=partial count
  kMpiSend,        ///< instant: arg0=(rank<<32)|peer, arg1=(reduction id<<32)|bytes
  kMpiRecv,        ///< instant: arg0=(rank<<32)|peer, arg1=(reduction id<<32)|bytes
  kMpiReduce,      ///< span: one rank's Comm::reduce. arg0=reduction id, arg1=payload bytes
  kCudaLaunch,     ///< span: one kernel launch. arg0=reduction id, arg1=total threads
  kCudaMemcpyH2D,  ///< span: host->device copy. arg0=reduction id, arg1=bytes
  kCudaMemcpyD2H,  ///< span: device->host copy. arg0=reduction id, arg1=bytes
  kPhiOffload,     ///< span: coprocessor upload. arg0=reduction id, arg1=bytes
  kStatusRaise,    ///< instant: a kernel raised sticky status. arg0=HpStatus
                   ///  mask, arg1=reduction id
  kCount           ///< sentinel, keep last
};

inline constexpr std::size_t kEventIdCount =
    static_cast<std::size_t>(EventId::kCount);

/// Record phase: Chrome's "i" / "B" / "E".
enum class Phase : std::uint16_t { kInstant = 0, kBegin = 1, kEnd = 2 };

/// One binary flight record (32 bytes, little-endian in the binary dump;
/// tools/flight2chrome.py decodes exactly this layout).
struct Event {
  std::uint64_t ts_ns = 0;     ///< steady_clock nanoseconds since arming
  std::uint16_t id = 0;        ///< EventId
  std::uint16_t phase = 0;     ///< Phase
  std::uint32_t reserved = 0;  ///< zero; room for a future field
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};
static_assert(sizeof(Event) == 32, "flight records are 32-byte fixed-size");

/// Stable dotted export name, e.g. "mpi.reduce".
[[nodiscard]] std::string_view event_name(EventId id) noexcept;

/// Per-thread ring capacity in records. A full ring drops its oldest
/// record per new write (counted in trace.flight.dropped).
inline constexpr std::size_t kRingCapacity = 4096;

/// Packs the (rank, peer) / (reduction id, bytes) pairs the mpisim instant
/// events carry in one u64 each. Bytes saturate at 2^32-1 — a flight tag,
/// not an accounting value (mpisim.bytes_sent is the exact counter).
[[nodiscard]] constexpr std::uint64_t pack_pair(std::uint64_t hi,
                                                std::uint64_t lo) noexcept {
  const std::uint64_t lo32 = lo > 0xffffffffull ? 0xffffffffull : lo;
  return (hi << 32) | lo32;
}

namespace detail {

/// The armed flag. Extern so the probe fast path below and the
/// count_status() hook in trace.hpp inline the single relaxed load.
extern std::atomic<bool> g_armed;

/// Appends one record to the calling thread's ring (allocating and
/// registering the ring on first use). Only called while armed.
void record(EventId id, Phase ph, std::uint64_t a0, std::uint64_t a1) noexcept;

}  // namespace detail

/// True when the recorder is collecting events (always false when the
/// telemetry layer is compiled out).
[[nodiscard]] inline bool armed() noexcept {
#if HPSUM_TRACE_ENABLED
  return detail::g_armed.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Turns the recorder on/off at runtime. The HPSUM_FLIGHT environment
/// variable (any value other than empty or "0") arms it at startup.
void arm() noexcept;
void disarm() noexcept;

/// Emits one record if armed. Constexpr-callable like trace::count so core
/// kernels with static_assert proofs can carry probes.
constexpr void emit(EventId id, Phase ph, std::uint64_t a0 = 0,
                    std::uint64_t a1 = 0) noexcept {
#if HPSUM_TRACE_ENABLED
  if (std::is_constant_evaluated()) return;
  if (armed()) detail::record(id, ph, a0, a1);
#else
  (void)id;
  (void)ph;
  (void)a0;
  (void)a1;
#endif
}

/// Instant-event shorthand.
constexpr void instant(EventId id, std::uint64_t a0 = 0,
                       std::uint64_t a1 = 0) noexcept {
  emit(id, Phase::kInstant, a0, a1);
}

/// RAII span: begin on construction, end on destruction, same args on both
/// records so either survives a ring wrap with full context.
class Span {
 public:
#if HPSUM_TRACE_ENABLED
  explicit Span(EventId id, std::uint64_t a0 = 0, std::uint64_t a1 = 0) noexcept
      : id_(id), a0_(a0), a1_(a1) {
    emit(id_, Phase::kBegin, a0_, a1_);
  }
  ~Span() { emit(id_, Phase::kEnd, a0_, a1_); }
#else
  explicit Span(EventId id, std::uint64_t a0 = 0,
                std::uint64_t a1 = 0) noexcept {
    (void)id;
    (void)a0;
    (void)a1;
  }
#endif
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
#if HPSUM_TRACE_ENABLED
  EventId id_;
  std::uint64_t a0_;
  std::uint64_t a1_;
#endif
};

/// The ambient reduction id worker probes tag their events with (0 when no
/// ReductionScope is open).
[[nodiscard]] std::uint64_t current_reduction_id() noexcept;

/// Allocates the next process-wide monotone reduction id without opening a
/// scope (for callers that manage their own begin/end).
[[nodiscard]] std::uint64_t next_reduction_id() noexcept;

/// Driver-side bracket for one logical reduction: allocates a fresh id,
/// publishes it as the ambient id (restoring the previous one on exit so
/// nested drivers stay correlated to themselves), and emits kReduction
/// begin/end. Open only on a driver thread — see the header comment.
class ReductionScope {
 public:
  explicit ReductionScope(std::uint64_t items = 0) noexcept;
  ~ReductionScope();
  ReductionScope(const ReductionScope&) = delete;
  ReductionScope& operator=(const ReductionScope&) = delete;

  /// This scope's reduction id (0 when the layer is compiled out).
  [[nodiscard]] std::uint64_t id() const noexcept {
#if HPSUM_TRACE_ENABLED
    return id_;
#else
    return 0;
#endif
  }

 private:
#if HPSUM_TRACE_ENABLED
  std::uint64_t id_ = 0;
  std::uint64_t prev_ = 0;
  std::uint64_t items_ = 0;
#endif
};

/// Labels the calling thread's timeline row in the Chrome export:
/// `label` names the backend/process group (e.g. "mpisim"), `pid` the
/// process-like lane within it (e.g. the rank), `tid` the thread/PE. No-op
/// while disarmed (arm before spawning workers, as the harnesses do).
void set_track(std::string_view label, int pid, int tid);

/// Timeline row identity as exported (pid/tid here are the logical ids
/// passed to set_track; the Chrome export maps distinct (label, pid) pairs
/// to synthetic process ids).
struct TrackInfo {
  std::string label = "host";
  int pid = 0;
  int tid = 0;
};

/// One thread's retained events, oldest first.
struct ThreadEvents {
  TrackInfo track;
  std::vector<Event> events;
};

/// Copies out every retained ring (live threads + retired ones), oldest
/// event first, sorted by (label, pid, tid) for deterministic export.
/// `last_k` > 0 keeps only each thread's most recent K events (the
/// forensic-bundle view). Safe to call while armed; records being
/// overwritten concurrently at the ring's wrap point may be skipped.
[[nodiscard]] std::vector<ThreadEvents> collect(std::size_t last_k = 0);

/// Renders `threads` as Chrome trace-event JSON (the "traceEvents" array
/// format Perfetto and chrome://tracing load). Timestamps are microseconds;
/// args are decoded per EventId (reduction_id, bytes, rank, ...).
[[nodiscard]] std::string to_chrome_json(const std::vector<ThreadEvents>& threads);

/// Writes to_chrome_json(collect()) to `path` ("-" or "" = stdout).
/// Returns false (writing nothing) if the file cannot be opened.
bool dump_chrome_json(const std::string& path);

/// Writes the compact binary dump ("HPFLIGT1" header; layout in
/// docs/OBSERVABILITY.md) decoded by tools/flight2chrome.py. Returns false
/// if the file cannot be opened ("-"/"" is invalid for binary output).
bool dump_binary(const std::string& path);

/// Drops every retained event (live rings rewind, retired rings are
/// freed). Like trace::reset(): for tests and bench warmup isolation;
/// quiesce writers first for exact results.
void reset() noexcept;

}  // namespace hpsum::trace::flight
