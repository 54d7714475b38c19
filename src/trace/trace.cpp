#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

namespace hpsum::trace {

namespace {

/// Process-wide shard registry. Function-local static so it outlives the
/// main thread's thread_local shard (TLS destructors run before statics').
struct Registry {
  std::mutex mu;
  std::vector<detail::Shard*> live;
  /// Totals folded in from threads that have exited.
  std::array<std::uint64_t, kCounterCount> retired{};
  std::array<std::uint64_t, kHistCount * kHistBuckets> retired_buckets{};
  std::array<std::uint64_t, kHistCount> retired_hist_count{};
  std::array<std::uint64_t, kHistCount> retired_hist_sum{};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Process-global gauge slots. Last-write-wins: no shard, no retirement —
/// a gauge is a level, not a total, so thread exit must not change it.
std::array<std::atomic<std::uint64_t>, kGaugeCount> g_gauges{};

/// Sorted name->enum table shared by the three from_name lookups. Derived
/// from the corresponding name function so the two directions cannot
/// desynchronize; sorted once at first use, then every resolve is a
/// binary search (the pulse sampler and health rules look names up every
/// tick, so O(catalog) scans are out).
template <typename Enum, std::size_t N, std::string_view (*NameFn)(Enum)>
std::optional<Enum> sorted_lookup(std::string_view name) noexcept {
  struct Entry {
    std::string_view name;
    Enum value;
  };
  static const std::array<Entry, N> table = [] {
    std::array<Entry, N> t{};
    for (std::size_t i = 0; i < N; ++i) {
      const auto e = static_cast<Enum>(i);
      t[i] = Entry{NameFn(e), e};
    }
    std::sort(t.begin(), t.end(),
              [](const Entry& a, const Entry& b) { return a.name < b.name; });
    return t;
  }();
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const Entry& e, std::string_view n) { return e.name < n; });
  if (it == table.end() || it->name != name) return std::nullopt;
  return it->value;
}

}  // namespace

namespace detail {

void register_shard(Shard* s) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(s);
}

void retire_shard(Shard* s) noexcept {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    r.retired[i] += s->values[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kHistCount * kHistBuckets; ++i) {
    r.retired_buckets[i] += s->buckets[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kHistCount; ++i) {
    r.retired_hist_count[i] += s->hist_count[i].load(std::memory_order_relaxed);
    r.retired_hist_sum[i] += s->hist_sum[i].load(std::memory_order_relaxed);
  }
  std::erase(r.live, s);
}

void gauge_store(Gauge g, std::uint64_t v) noexcept {
  g_gauges[static_cast<std::size_t>(g)].store(v, std::memory_order_relaxed);
}

}  // namespace detail

std::string_view counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kScatterAddCalls: return "core.scatter_add.calls";
    case Counter::kReferenceAddCalls: return "core.reference_add.calls";
    case Counter::kBlockAccumulates: return "core.block.accumulates";
    case Counter::kBlockDeposits: return "core.block.deposits";
    case Counter::kBlockNormalizes: return "core.block.normalizes";
    case Counter::kBlockFlushedDeposits: return "core.block.flushed_deposits";
    case Counter::kBlockScalarFallbacks: return "core.block.scalar_fallbacks";
    case Counter::kBlockSimdBatches: return "core.block.simd_batches";
    case Counter::kBlockSimdDeposits: return "core.block.simd_deposits";
    case Counter::kBlockSimdPunts: return "core.block.simd_punts";
    case Counter::kStatusConvertOverflow: return "core.status_raise.convert_overflow";
    case Counter::kStatusAddOverflow: return "core.status_raise.add_overflow";
    case Counter::kStatusToDoubleOverflow: return "core.status_raise.to_double_overflow";
    case Counter::kStatusInexact: return "core.status_raise.inexact";
    case Counter::kStatusToDoubleInexact: return "core.status_raise.to_double_inexact";
    case Counter::kStatusInvalidOp: return "core.status_raise.invalid_op";
    case Counter::kAtomicCasAdds: return "atomic.cas.adds";
    case Counter::kAtomicCasRetries: return "atomic.cas.retries";
    case Counter::kAtomicFetchAddAdds: return "atomic.fetch_add.adds";
    case Counter::kBackendReductions: return "backends.reductions";
    case Counter::kBackendBusyNs: return "backends.busy_ns";
    case Counter::kBackendMergeNs: return "backends.merge_ns";
    case Counter::kMpisimMessages: return "mpisim.messages";
    case Counter::kMpisimBytesSent: return "mpisim.bytes_sent";
    case Counter::kMpisimReductions: return "mpisim.reductions";
    case Counter::kMpisimWireRawBytes: return "mpisim.wire.raw_bytes";
    case Counter::kMpisimWireEncodedBytes: return "mpisim.wire.encoded_bytes";
    case Counter::kMpisimAlgoLinear: return "mpisim.algo.linear";
    case Counter::kMpisimAlgoBinomialTree: return "mpisim.algo.binomial_tree";
    case Counter::kMpisimAlgoRecDoubling:
      return "mpisim.algo.recursive_doubling";
    case Counter::kMpisimAlgoRecHalving:
      return "mpisim.algo.recursive_halving";
    case Counter::kCudasimLaunches: return "cudasim.launches";
    case Counter::kCudasimCasRetries: return "cudasim.cas_retries";
    case Counter::kCudasimBytesH2D: return "cudasim.bytes_h2d";
    case Counter::kCudasimBytesD2H: return "cudasim.bytes_d2h";
    case Counter::kCudasimBusyNs: return "cudasim.busy_ns";
    case Counter::kPhisimOffloads: return "phisim.offloads";
    case Counter::kPhisimBytesUploaded: return "phisim.bytes_uploaded";
    case Counter::kPhisimBusyNs: return "phisim.busy_ns";
    case Counter::kEngineSnapshots: return "engine.snapshot.count";
    case Counter::kEngineSnapshotRetries: return "engine.snapshot.retries";
    case Counter::kEngineShardsRegistered: return "engine.shard.registered";
    case Counter::kEngineShardsRetired: return "engine.shard.retired";
    case Counter::kFlightDropped: return "trace.flight.dropped";
    case Counter::kCount: break;
  }
  return "unknown";
}

std::string_view hist_name(Hist h) noexcept {
  switch (h) {
    case Hist::kScatterCarryChain: return "core.scatter_add.carry_chain";
    case Hist::kBlockFlushDepth: return "core.block.flush_depth";
    case Hist::kReduceLatencyNs: return "core.reduce.latency_ns";
    case Hist::kAtomicCasRetriesPerAdd: return "atomic.cas.retries_per_add";
    case Hist::kMpisimMsgBytes: return "mpisim.msg_bytes";
    case Hist::kEngineSnapshotLatencyUs: return "engine.snapshot.latency_us";
    case Hist::kCount: break;
  }
  return "unknown";
}

std::string_view gauge_name(Gauge g) noexcept {
  switch (g) {
    case Gauge::kAccLimbOccupancy: return "core.block.limb_occupancy";
    case Gauge::kCount: break;
  }
  return "unknown";
}

std::optional<Counter> counter_from_name(std::string_view name) noexcept {
  return sorted_lookup<Counter, kCounterCount, counter_name>(name);
}

std::optional<Hist> hist_from_name(std::string_view name) noexcept {
  return sorted_lookup<Hist, kHistCount, hist_name>(name);
}

std::optional<Gauge> gauge_from_name(std::string_view name) noexcept {
  return sorted_lookup<Gauge, kGaugeCount, gauge_name>(name);
}

Snapshot snapshot() {
  Snapshot out;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  out.values = r.retired;
  for (std::size_t h = 0; h < kHistCount; ++h) {
    auto& hd = out.hists[h];
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      hd.buckets[b] = r.retired_buckets[h * kHistBuckets + b];
    }
    hd.count = r.retired_hist_count[h];
    hd.sum = r.retired_hist_sum[h];
  }
  for (const detail::Shard* s : r.live) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      out.values[i] += s->values[i].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kHistCount; ++h) {
      auto& hd = out.hists[h];
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        hd.buckets[b] +=
            s->buckets[h * kHistBuckets + b].load(std::memory_order_relaxed);
      }
      hd.count += s->hist_count[h].load(std::memory_order_relaxed);
      hd.sum += s->hist_sum[h].load(std::memory_order_relaxed);
    }
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    out.gauges[g] = g_gauges[g].load(std::memory_order_relaxed);
  }
  return out;
}

void reset() noexcept {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.retired.fill(0);
  r.retired_buckets.fill(0);
  r.retired_hist_count.fill(0);
  r.retired_hist_sum.fill(0);
  for (detail::Shard* s : r.live) {
    for (auto& v : s->values) v.store(0, std::memory_order_relaxed);
    for (auto& v : s->buckets) v.store(0, std::memory_order_relaxed);
    for (auto& v : s->hist_count) v.store(0, std::memory_order_relaxed);
    for (auto& v : s->hist_sum) v.store(0, std::memory_order_relaxed);
  }
  for (auto& g : g_gauges) g.store(0, std::memory_order_relaxed);
}

Snapshot Snapshot::delta_since(const Snapshot& earlier) const noexcept {
  const auto sat_sub = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  Snapshot out;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out.values[i] = sat_sub(values[i], earlier.values[i]);
  }
  for (std::size_t h = 0; h < kHistCount; ++h) {
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      out.hists[h].buckets[b] =
          sat_sub(hists[h].buckets[b], earlier.hists[h].buckets[b]);
    }
    out.hists[h].count = sat_sub(hists[h].count, earlier.hists[h].count);
    out.hists[h].sum = sat_sub(hists[h].sum, earlier.hists[h].sum);
  }
  // Gauges are levels: a delta stream still wants the current reading.
  out.gauges = gauges;
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"hpsum_trace\": 2,\n  \"enabled\": ";
  out += enabled() ? "true" : "false";
  out += ",\n  \"counters\": {\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out += "    \"";
    out += counter_name(static_cast<Counter>(i));
    out += "\": ";
    out += std::to_string(values[i]);
    out += i + 1 < kCounterCount ? ",\n" : "\n";
  }
  out += "  },\n  \"histograms\": {\n";
  for (std::size_t h = 0; h < kHistCount; ++h) {
    const auto& hd = hists[h];
    out += "    \"";
    out += hist_name(static_cast<Hist>(h));
    out += "\": {\"count\": ";
    out += std::to_string(hd.count);
    out += ", \"sum\": ";
    out += std::to_string(hd.sum);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      out += std::to_string(hd.buckets[b]);
      if (b + 1 < kHistBuckets) out += ", ";
    }
    out += "]}";
    out += h + 1 < kHistCount ? ",\n" : "\n";
  }
  out += "  },\n  \"gauges\": {\n";
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    out += "    \"";
    out += gauge_name(static_cast<Gauge>(g));
    out += "\": ";
    out += std::to_string(gauges[g]);
    out += g + 1 < kGaugeCount ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "counter,value\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out += counter_name(static_cast<Counter>(i));
    out += ',';
    out += std::to_string(values[i]);
    out += '\n';
  }
  return out;
}

bool write_json(const std::string& path) {
  const std::string json = snapshot().to_json();
  if (path.empty() || path == "-") {
    std::fputs(json.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace hpsum::trace
