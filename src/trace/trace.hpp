// hptrace — near-zero-overhead runtime telemetry for the HP contract.
//
// The library's behavioral contract (bit-exact, order-invariant sums with
// sticky status) is invisible at runtime without counters: CAS retry
// pressure in HpAtomic, carry-chain lengths in the scatter-add fast path,
// and per-backend bytes/busy time all decide
// whether a deployment is healthy, yet none of them used to be observable
// outside ad-hoc bench printouts. This layer is the one place such numbers
// flow through (tools/hplint rule L5 flags raw printf/timer telemetry in
// src/core, src/mpisim, and src/audit for exactly that reason).
//
// Three metric kinds share one fixed catalog-per-kind design:
//   - Counter: named monotonic counters. Span timers are counters holding
//     accumulated nanoseconds (ScopedTimer).
//   - Hist: log2-bucket histograms (kHistBuckets buckets; bucket 0 holds
//     value 0, bucket i>=1 holds values with bit_width == i, the last
//     bucket absorbs the tail) plus an exact count and sum per histogram —
//     distributions, not just totals, for carry-chain lengths, reduce_hp
//     latency, CAS retries per add, message bytes, and flush depth.
//   - Gauge: last-write-wins current values (live limb occupancy) held
//     in process-global atomic slots; a
//     gauge read is tear-free because it is one 64-bit relaxed load.
//
// Design:
//   - Counter/histogram writes go to a thread-local shard: a single-writer
//     relaxed-atomic slot per counter/bucket, so the hot-path increment
//     compiles to a plain load/add/store of the owning thread's cache
//     line — no lock prefix, no contention, and tear-free for concurrent
//     readers.
//   - snapshot() aggregates live shards plus the retired totals of exited
//     threads under a registry mutex; successive snapshots are monotone
//     per counter AND per histogram bucket.
//   - Compile-time kill switch: building with -DHPSUM_TRACE_ENABLED=0
//     (CMake: -DHPSUM_TRACE=OFF) turns every probe into a no-op expression
//     with zero code, while the snapshot/export API stays linkable.
//   - Probes are callable from constexpr kernels: count() / observe() /
//     gauge_set() are constexpr and only touch storage when not in
//     constant evaluation, so the static_assert proofs in
//     tests/test_constexpr_proofs.cpp still hold.
//
// The background sampler/exporter over these snapshots (JSONL deltas +
// Prometheus exposition) is src/trace/pulse.hpp; the derived health-rule
// layer is src/audit/health.hpp. docs/OBSERVABILITY.md has the catalogs,
// export schemas, and measured overhead numbers.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
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

/// The counter catalog. Stable names (see counter_name) appear in JSON/CSV
/// exports; docs/OBSERVABILITY.md documents each one.
enum class Counter : std::uint16_t {
  // core — scatter-add fast path vs reference path. (Carry-chain lengths
  // graduated from four ad-hoc counters to the Hist::kScatterCarryChain
  // histogram below.)
  kScatterAddCalls = 0,   ///< operator+=(double) deposits (fast path)
  kReferenceAddCalls,     ///< add_double_reference convert+add pairs
  // core — the carry-deferred block fast path (kernel::block_add/flush).
  kBlockAccumulates,      ///< accumulate(span) block-API entries
  kBlockDeposits,         ///< doubles offered to the block path
  kBlockNormalizes,       ///< carry-save plane flushes (block_flush)
  kBlockFlushedDeposits,  ///< deferred deposits folded per flush (depth sum)
  kBlockScalarFallbacks,  ///< deposits past the deferral budget (scalar path)
  // core — the vectorized (SIMD) batch-deposit path over the block planes.
  kBlockSimdBatches,      ///< full-width batches deposited in vector lanes
  kBlockSimdDeposits,     ///< doubles deposited by the vector path
  kBlockSimdPunts,        ///< full-width batches punted to the scalar deposit
  // core — sticky status raise counts, one counter per HpStatus bit.
  kStatusConvertOverflow,
  kStatusAddOverflow,
  kStatusToDoubleOverflow,
  kStatusInexact,
  kStatusToDoubleInexact,
  kStatusInvalidOp,
  // HpAtomic — contention and adder-flavor traffic.
  kAtomicCasAdds,         ///< add() calls (CAS-loop adder)
  kAtomicCasRetries,      ///< failed compare_exchange attempts
  kAtomicFetchAddAdds,    ///< add_fetch_add() calls (ablation adder)
  // backends — span timers routed through the registry (nanoseconds).
  kBackendReductions,     ///< run_threads/run_openmp invocations
  kBackendBusyNs,         ///< summed per-PE busy time
  kBackendMergeNs,        ///< master-thread partial combines
  // mpisim — message traffic.
  kMpisimMessages,
  kMpisimBytesSent,
  kMpisimReductions,
  // mpisim — collective payload bytes before/after the optional Op wire
  // codec (equal when no codec is attached), and per-topology reduction
  // counts.
  kMpisimWireRawBytes,
  kMpisimWireEncodedBytes,
  kMpisimAlgoLinear,
  kMpisimAlgoBinomialTree,
  kMpisimAlgoRecDoubling,
  kMpisimAlgoRecHalving,
  // cudasim — launches, contention, PCIe traffic.
  kCudasimLaunches,
  kCudasimCasRetries,
  kCudasimBytesH2D,
  kCudasimBytesD2H,
  kCudasimBusyNs,
  // phisim — offload traffic.
  kPhisimOffloads,
  kPhisimBytesUploaded,
  kPhisimBusyNs,
  // engine — sharded deposit sinks (src/engine ShardSet).
  kEngineSnapshots,        ///< snapshot()/checkpoint() seqlock collect passes
  kEngineSnapshotRetries,  ///< torn-shard seqlock re-reads during merges
  kEngineShardsRegistered, ///< shard slots created (fixed lanes + handles)
  kEngineShardsRetired,    ///< dynamic shards folded into the retired total
  // trace — the telemetry layer watching itself.
  kFlightDropped,         ///< flight-recorder records overwritten (ring wrap)
  kCount  ///< sentinel, keep last
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// The histogram catalog: fixed log2-bucket distributions. Each histogram
/// also tracks an exact observation count and value sum (so means and
/// Prometheus `_sum`/`_count` series need no bucket arithmetic).
enum class Hist : std::uint16_t {
  kScatterCarryChain = 0,   ///< limbs the carry/borrow propagated past the
                            ///  deposit pair (0 = died in place); one
                            ///  observation per deposit that touched limbs
  kBlockFlushDepth,         ///< deferred deposits folded per block_flush
  kReduceLatencyNs,         ///< wall nanoseconds per reduce_hp call
  kAtomicCasRetriesPerAdd,  ///< failed CAS attempts within one HpAtomic add
  kMpisimMsgBytes,          ///< payload bytes per mpisim message
  kEngineSnapshotLatencyUs, ///< microseconds per engine ShardSet merge pass
  kCount  ///< sentinel, keep last
};

inline constexpr std::size_t kHistCount = static_cast<std::size_t>(Hist::kCount);

/// Buckets per histogram. Bucket 0 holds value 0; bucket i (1..46) holds
/// values with bit_width == i, i.e. [2^(i-1), 2^i); the last bucket
/// absorbs everything at or above 2^(kHistBuckets-2). 48 buckets cover
/// nanosecond latencies past 1.5 days and byte counts past 64 TiB.
inline constexpr std::size_t kHistBuckets = 48;

/// The gauge catalog: last-write-wins current values.
enum class Gauge : std::uint16_t {
  kAccLimbOccupancy = 0,  ///< nonzero limbs of the most recently flushed
                          ///  block accumulator (live density indicator)
  kCount  ///< sentinel, keep last
};

inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);

/// Stable dotted export name, e.g. "core.scatter_add.calls".
[[nodiscard]] std::string_view counter_name(Counter c) noexcept;
/// Stable dotted export name, e.g. "core.scatter_add.carry_chain".
[[nodiscard]] std::string_view hist_name(Hist h) noexcept;
/// Stable dotted export name, e.g. "core.block.limb_occupancy".
[[nodiscard]] std::string_view gauge_name(Gauge g) noexcept;

/// Inverse of counter_name: resolves a dotted export name back to its
/// Counter, or nullopt for names outside the catalog. Lets tools and tests
/// address counters by the stable exported string instead of hard-coding
/// enum<->name pairs. Backed by a sorted static table + binary search (the
/// pulse sampler and health rules resolve names every tick, so the lookup
/// must not scan the catalog).
[[nodiscard]] std::optional<Counter> counter_from_name(
    std::string_view name) noexcept;
/// Same contract for the histogram catalog.
[[nodiscard]] std::optional<Hist> hist_from_name(std::string_view name) noexcept;
/// Same contract for the gauge catalog.
[[nodiscard]] std::optional<Gauge> gauge_from_name(
    std::string_view name) noexcept;

/// Log2 bucket index for a histogram observation: 0 for value 0, else
/// bit_width(v) clamped into the catalog's last bucket.
[[nodiscard]] constexpr std::size_t hist_bucket_index(
    std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const auto w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistBuckets ? w : kHistBuckets - 1;
}

/// Inclusive upper bound of bucket i over integer observations (the
/// Prometheus `le` label): 0, 1, 3, 7, ..., 2^(i)-1; the last bucket is
/// unbounded (+Inf) and this returns uint64 max for it.
[[nodiscard]] constexpr std::uint64_t hist_bucket_le(std::size_t i) noexcept {
  if (i + 1 >= kHistBuckets) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// Converts a duration in seconds to whole nanoseconds, clamping the
/// garbage cases a monotonic counter must never see: negative and NaN map
/// to 0, overflow saturates at uint64 max. This is the one sanctioned
/// seconds->ns edge for counter bumps (backends::detail::trace_point,
/// cudasim launch accounting, phisim offload spans).
[[nodiscard]] constexpr std::uint64_t saturating_ns(double seconds) noexcept {
  const double ns = seconds * 1e9;
  if (!(ns > 0.0)) return 0;  // negative, zero, and NaN all land here
  if (ns >= 18446744073709551616.0) return ~std::uint64_t{0};  // >= 2^64
  return static_cast<std::uint64_t>(ns);
}

/// True when probes are compiled in (HPSUM_TRACE_ENABLED in this TU).
[[nodiscard]] constexpr bool enabled() noexcept {
  return HPSUM_TRACE_ENABLED != 0;
}

namespace detail {

/// One thread's metric shard: counter slots plus per-histogram bucket
/// rows, counts, and sums. Slots are written only by the owning thread
/// (relaxed store of load+delta — a plain add on x86) and read by
/// snapshot(); the atomic type makes cross-thread reads tear-free without
/// ordering cost. Gauges are NOT shard state — a gauge is one
/// process-global last-write-wins slot (trace.cpp).
struct Shard {
  std::array<std::atomic<std::uint64_t>, kCounterCount> values{};
  /// Row-major [hist][bucket].
  std::array<std::atomic<std::uint64_t>, kHistCount * kHistBuckets> buckets{};
  std::array<std::atomic<std::uint64_t>, kHistCount> hist_count{};
  std::array<std::atomic<std::uint64_t>, kHistCount> hist_sum{};
};

/// Registers/retires a shard with the process-wide registry (trace.cpp).
/// retire folds the shard's final values into the retired totals so exited
/// threads keep counting toward snapshots.
void register_shard(Shard* s);
void retire_shard(Shard* s) noexcept;

/// Relaxed store into the process-global gauge slot (trace.cpp).
void gauge_store(Gauge g, std::uint64_t v) noexcept;

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

/// Runtime histogram observation: bumps the value's log2 bucket and the
/// histogram's exact count and sum in the calling thread's shard.
inline void observe_now(Hist h, std::uint64_t v) {
#if HPSUM_TRACE_ENABLED
  auto& shard = detail::local_shard();
  const std::size_t hi = static_cast<std::size_t>(h);
  auto& bucket = shard.buckets[hi * kHistBuckets + hist_bucket_index(v)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  auto& cnt = shard.hist_count[hi];
  cnt.store(cnt.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  auto& sum = shard.hist_sum[hi];
  sum.store(sum.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
#else
  (void)h;
  (void)v;
#endif
}

/// Histogram probe usable inside constexpr kernels: a no-op during
/// constant evaluation, a shard observation at runtime, nothing at all
/// when the layer is compiled out.
constexpr void observe(Hist h, std::uint64_t v) noexcept {
#if HPSUM_TRACE_ENABLED
  if (!std::is_constant_evaluated()) observe_now(h, v);
#else
  (void)h;
  (void)v;
#endif
}

/// Gauge probe: last-write-wins relaxed store of the current value.
/// Constexpr-safe and compiled out like every other probe.
constexpr void gauge_set(Gauge g, std::uint64_t v) noexcept {
#if HPSUM_TRACE_ENABLED
  if (!std::is_constant_evaluated()) detail::gauge_store(g, v);
#else
  (void)g;
  (void)v;
#endif
}

/// Observes a scatter-add carry/borrow chain length (limbs the chain
/// propagated past the deposit limbs; 0 = the deposit died in place) into
/// the Hist::kScatterCarryChain histogram. One observation per deposit
/// that actually touched limbs, so the histogram's count is the deposit
/// count and its buckets are the real chain-length distribution.
constexpr void count_carry_chain(int len) noexcept {
#if HPSUM_TRACE_ENABLED
  observe(Hist::kScatterCarryChain,
          static_cast<std::uint64_t>(len < 0 ? 0 : len));
#else
  (void)len;
#endif
}

/// Span timer: accumulates elapsed nanoseconds into `c` on destruction.
/// Compiles to nothing when the layer is off.
class ScopedTimer {
 public:
#if HPSUM_TRACE_ENABLED
  explicit ScopedTimer(Counter c) noexcept
      : c_(c), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    bump(c_, static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
  }
#else
  explicit ScopedTimer(Counter) noexcept {}
#endif
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
#if HPSUM_TRACE_ENABLED
  Counter c_;
  std::chrono::steady_clock::time_point start_;
#endif
};

/// Distribution timer: observes elapsed nanoseconds into a histogram on
/// destruction (one observation per scope, vs ScopedTimer's running
/// total). Compiles to nothing when the layer is off.
class HistTimer {
 public:
#if HPSUM_TRACE_ENABLED
  explicit HistTimer(Hist h) noexcept
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~HistTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    observe_now(h_, static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
  }
#else
  explicit HistTimer(Hist) noexcept {}
#endif
  HistTimer(const HistTimer&) = delete;
  HistTimer& operator=(const HistTimer&) = delete;

 private:
#if HPSUM_TRACE_ENABLED
  Hist h_;
  std::chrono::steady_clock::time_point start_;
#endif
};

/// A point-in-time aggregate of every metric across all threads (live
/// shards + retired totals; gauges read from their process-global slots).
struct Snapshot {
  /// One histogram's aggregated state.
  struct HistData {
    std::array<std::uint64_t, kHistBuckets> buckets{};
    std::uint64_t count = 0;  ///< exact observation count (== sum of buckets)
    std::uint64_t sum = 0;    ///< exact sum of observed values
  };

  std::array<std::uint64_t, kCounterCount> values{};
  std::array<HistData, kHistCount> hists{};
  std::array<std::uint64_t, kGaugeCount> gauges{};

  [[nodiscard]] std::uint64_t value(Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const HistData& hist(Hist h) const noexcept {
    return hists[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  /// Name-based lookup via counter_from_name; nullopt for unknown names.
  [[nodiscard]] std::optional<std::uint64_t> value(
      std::string_view name) const noexcept {
    const std::optional<Counter> c = counter_from_name(name);
    if (!c.has_value()) return std::nullopt;
    return value(*c);
  }
  /// Per-metric difference `*this - earlier`: counters and histogram
  /// buckets/counts/sums saturate at 0 (so a mid-flight reset cannot
  /// produce wrapped deltas); gauges are NOT differenced — the delta
  /// carries this snapshot's current gauge values, because a
  /// last-write-wins level has no meaningful rate.
  [[nodiscard]] Snapshot delta_since(const Snapshot& earlier) const noexcept;
  /// {"hpsum_trace": 2, "enabled": ..., "counters": {...},
  ///  "histograms": {name: {"buckets": [...], "count": c, "sum": s}, ...},
  ///  "gauges": {name: value, ...}}
  [[nodiscard]] std::string to_json() const;
  /// "counter,value\n" rows with a header line (counters only; histograms
  /// and gauges export through to_json / the pulse plane).
  [[nodiscard]] std::string to_csv() const;
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

/// Writes snapshot().to_json() to `path` ("-" or "" = stdout). Returns
/// false (and writes nothing) if the file cannot be opened.
bool write_json(const std::string& path);

}  // namespace hpsum::trace
