// hptrace — near-zero-overhead runtime counters for the HP contract.
//
// The library's behavioral contract (bit-exact, order-invariant sums with
// sticky status) is invisible at runtime without counters: which deposit
// path each summand took, how often the block path flushed, how often a
// status bit was raised, CAS retry pressure in HpAtomic, wire codec bytes
// and engine snapshot retries all decide whether a run is healthy. This
// layer is the one place such numbers flow through (tools/hplint rule L5
// flags raw printf/timer telemetry in src/core, src/mpisim, and src/audit
// for exactly that reason).
//
// One metric kind: named monotonic counters in a fixed catalog. Each one
// is read by a health rule (src/audit/health.cpp), bench/e2e, or a
// behaviour test; a counter nothing reads does not belong here. The
// backends, mpisim, cudasim and phisim report their own timings and
// traffic in their result types (ScalingPoint, RunStats, LaunchStats,
// OffloadPoint), and flight spans (flight.hpp) give the timeline.
//
// Design:
//   - Writes go to a thread-local shard: a single-writer relaxed-atomic
//     slot per counter, so the hot-path increment compiles to a plain
//     load/add/store of the owning thread's cache line — no lock prefix,
//     no contention, and tear-free for concurrent readers.
//   - snapshot() aggregates live shards plus the retired totals of exited
//     threads under a registry mutex; successive snapshots are monotone
//     per counter.
//   - Compile-time kill switch: building with -DHPSUM_TRACE_ENABLED=0
//     (CMake: -DHPSUM_TRACE=OFF) turns every probe into a no-op expression
//     with zero code, while the snapshot/export API stays linkable.
//   - Probes are callable from constexpr kernels: count() and
//     count_status() are constexpr and only touch storage when not in
//     constant evaluation, so the static_assert proofs in
//     tests/test_constexpr_proofs.cpp still hold.
//
// Snapshots are exported once, at the end of a run (write_json, the
// --metrics flag); the derived health-rule layer over them is
// src/audit/health.hpp. docs/OBSERVABILITY.md has the catalog, export
// schemas, and measured overhead numbers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/hp_status.hpp"  // header-only; no link dependency

#ifndef HPSUM_TRACE_ENABLED
#define HPSUM_TRACE_ENABLED 1
#endif

namespace hpsum::trace {

/// The counter catalog. Stable names (see counter_name) appear in the JSON
/// export; docs/OBSERVABILITY.md documents each one.
enum class Counter : std::uint16_t {
  // core — scatter-add fast path vs reference path.
  kScatterAddCalls = 0,   ///< operator+=(double) deposits (fast path)
  kReferenceAddCalls,     ///< add_double_reference convert+add pairs
  // core — the carry-deferred block fast path (kernel::block_add/flush).
  kBlockDeposits,         ///< doubles offered to the block path
  kBlockNormalizes,       ///< carry-save plane flushes (block_flush)
  kBlockScalarFallbacks,  ///< deposits past the deferral budget (scalar path)
  // core — the vectorized (SIMD) batch-deposit path over the block planes.
  kBlockSimdBatches,      ///< full-width batches deposited in vector lanes
  kBlockSimdDeposits,     ///< doubles deposited by the vector path
  kBlockSimdPunts,        ///< full-width batches punted to the scalar deposit
  // core — the exponent-indexed chunk deposit (kernel::chunk_accumulate).
  kBlockChunkDeposits,    ///< doubles deposited by committed chunk blocks
  // core — sticky status raise counts, one counter per HpStatus bit.
  kStatusConvertOverflow,
  kStatusAddOverflow,
  kStatusToDoubleOverflow,
  kStatusInexact,
  kStatusToDoubleInexact,
  kStatusInvalidOp,
  // HpAtomic — CAS-loop contention.
  kAtomicCasAdds,         ///< add() calls (CAS-loop adder)
  kAtomicCasRetries,      ///< failed compare_exchange attempts
  // mpisim — collective payload bytes before/after the optional Op wire
  // codec (equal when no codec is attached).
  kMpisimWireRawBytes,
  kMpisimWireEncodedBytes,
  // engine — sharded deposit sinks (src/engine ShardSet).
  kEngineSnapshots,        ///< snapshot()/checkpoint() seqlock collect passes
  kEngineSnapshotRetries,  ///< torn-shard seqlock re-reads during merges
  // trace — the telemetry layer watching itself.
  kFlightDropped,         ///< flight-recorder records overwritten (ring wrap)
  kCount  ///< sentinel, keep last
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable dotted export name, e.g. "core.scatter_add.calls".
[[nodiscard]] std::string_view counter_name(Counter c) noexcept;
/// Inverse of counter_name: resolves a dotted export name back to its
/// Counter, or nullopt for names outside the catalog. Lets tools and tests
/// address counters by the stable exported string instead of hard-coding
/// enum<->name pairs. Backed by a sorted static table + binary search.
[[nodiscard]] std::optional<Counter> counter_from_name(
    std::string_view name) noexcept;

/// True when probes are compiled in (HPSUM_TRACE_ENABLED in this TU).
[[nodiscard]] constexpr bool enabled() noexcept {
  return HPSUM_TRACE_ENABLED != 0;
}

namespace detail {

/// One thread's counter shard. Slots are written only by the owning
/// thread (relaxed store of load+delta — a plain add on x86) and read by
/// snapshot(); the atomic type makes cross-thread reads tear-free without
/// ordering cost.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kCounterCount> values{};
};

/// Registers/retires a shard with the process-wide registry (trace.cpp).
/// retire folds the shard's final values into the retired totals so exited
/// threads keep counting toward snapshots.
void register_shard(Shard* s);
void retire_shard(Shard* s) noexcept;

struct ShardOwner {
  Shard shard;
  ShardOwner() { register_shard(&shard); }
  ~ShardOwner() { retire_shard(&shard); }
  ShardOwner(const ShardOwner&) = delete;
  ShardOwner& operator=(const ShardOwner&) = delete;
};

inline Shard& local_shard() {
  thread_local ShardOwner owner;
  return owner.shard;
}

}  // namespace detail

// Hook points for the flight recorder (src/trace/flight.hpp) so
// count_status() can emit a kStatusRaise instant event without this header
// depending on flight.hpp. Both symbols are defined in flight.cpp, which
// lives in the same hpsum_trace library.
namespace flight::detail {
extern std::atomic<bool> g_armed;
void record_status_raise(std::uint8_t mask) noexcept;
}  // namespace flight::detail

/// Runtime increment. Prefer count() in code that may run at compile time.
inline void bump(Counter c, std::uint64_t n = 1) {
#if HPSUM_TRACE_ENABLED
  auto& slot = detail::local_shard().values[static_cast<std::size_t>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
#else
  (void)c;
  (void)n;
#endif
}

/// Probe usable inside constexpr kernels: a no-op during constant
/// evaluation, a shard increment at runtime, nothing at all when the layer
/// is compiled out.
constexpr void count(Counter c, std::uint64_t n = 1) noexcept {
#if HPSUM_TRACE_ENABLED
  if (!std::is_constant_evaluated()) bump(c, n);
#else
  (void)c;
  (void)n;
#endif
}

/// Bumps one status-raise counter per set HpStatus bit. Call with the mask
/// a kernel is about to return; the common kOk case is a single branch.
constexpr void count_status(HpStatus st) noexcept {
#if HPSUM_TRACE_ENABLED
  if (st == HpStatus::kOk || std::is_constant_evaluated()) return;
  if (has(st, HpStatus::kConvertOverflow)) bump(Counter::kStatusConvertOverflow);
  if (has(st, HpStatus::kAddOverflow)) bump(Counter::kStatusAddOverflow);
  if (has(st, HpStatus::kToDoubleOverflow)) bump(Counter::kStatusToDoubleOverflow);
  if (has(st, HpStatus::kInexact)) bump(Counter::kStatusInexact);
  if (has(st, HpStatus::kToDoubleInexact)) bump(Counter::kStatusToDoubleInexact);
  if (has(st, HpStatus::kInvalidOp)) bump(Counter::kStatusInvalidOp);
  if (flight::detail::g_armed.load(std::memory_order_relaxed)) {
    flight::detail::record_status_raise(static_cast<std::uint8_t>(st));
  }
#else
  (void)st;
#endif
}

/// A point-in-time aggregate of every counter across all threads (live
/// shards + retired totals).
struct Snapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  [[nodiscard]] std::uint64_t value(Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  /// Name-based lookup via counter_from_name; nullopt for unknown names.
  [[nodiscard]] std::optional<std::uint64_t> value(
      std::string_view name) const noexcept {
    const std::optional<Counter> c = counter_from_name(name);
    if (!c.has_value()) return std::nullopt;
    return value(*c);
  }
  /// Per-counter difference `*this - earlier`, saturating at 0 (so a
  /// mid-flight reset cannot produce wrapped deltas).
  [[nodiscard]] Snapshot delta_since(const Snapshot& earlier) const noexcept;
  /// {"hpsum_trace": 3, "enabled": ..., "counters": {name: value, ...}}
  [[nodiscard]] std::string to_json() const;
};

/// Aggregates all shards. Safe to call concurrently with active probes;
/// each counter independently reflects some point in its recent history,
/// and successive snapshots are per-counter monotone.
[[nodiscard]] Snapshot snapshot();

/// Zeroes every live shard and the retired totals. For tests and bench
/// warmup isolation only: racing probes keep their writes race-free but a
/// concurrent increment may survive or vanish — quiesce first for exact
/// numbers.
void reset() noexcept;

/// The one export writer: writes `text` to `path` ("-" or "" = stdout).
/// Returns false when the file cannot be opened, the write is short, or
/// the close (or, for stdout, the flush) fails, so a full disk is an
/// error rather than a silently empty export. Every JSON export (metrics,
/// flight, health, forensic bundle) goes through it.
[[nodiscard]] bool write_file(const std::string& path, std::string_view text);

/// Writes snapshot().to_json() to `path` via write_file.
[[nodiscard]] bool write_json(const std::string& path);

}  // namespace hpsum::trace
