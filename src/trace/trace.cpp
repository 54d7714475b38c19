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
};

Registry& registry() {
  static Registry r;
  return r;
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
  std::erase(r.live, s);
}

}  // namespace detail

std::string_view counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kScatterAddCalls: return "core.scatter_add.calls";
    case Counter::kReferenceAddCalls: return "core.reference_add.calls";
    case Counter::kBlockDeposits: return "core.block.deposits";
    case Counter::kBlockNormalizes: return "core.block.normalizes";
    case Counter::kBlockScalarFallbacks: return "core.block.scalar_fallbacks";
    case Counter::kBlockSimdBatches: return "core.block.simd_batches";
    case Counter::kBlockSimdDeposits: return "core.block.simd_deposits";
    case Counter::kBlockSimdPunts: return "core.block.simd_punts";
    case Counter::kBlockChunkDeposits: return "core.block.chunk_deposits";
    case Counter::kStatusConvertOverflow: return "core.status_raise.convert_overflow";
    case Counter::kStatusAddOverflow: return "core.status_raise.add_overflow";
    case Counter::kStatusToDoubleOverflow: return "core.status_raise.to_double_overflow";
    case Counter::kStatusInexact: return "core.status_raise.inexact";
    case Counter::kStatusToDoubleInexact: return "core.status_raise.to_double_inexact";
    case Counter::kStatusInvalidOp: return "core.status_raise.invalid_op";
    case Counter::kAtomicCasAdds: return "atomic.cas.adds";
    case Counter::kAtomicCasRetries: return "atomic.cas.retries";
    case Counter::kMpisimWireRawBytes: return "mpisim.wire.raw_bytes";
    case Counter::kMpisimWireEncodedBytes: return "mpisim.wire.encoded_bytes";
    case Counter::kEngineSnapshots: return "engine.snapshot.count";
    case Counter::kEngineSnapshotRetries: return "engine.snapshot.retries";
    case Counter::kFlightDropped: return "trace.flight.dropped";
    case Counter::kCount: break;
  }
  return "unknown";
}

/// Backed by a name-sorted table derived from counter_name, so the two
/// directions cannot desynchronize; sorted once at first use, then every
/// resolve is a binary search.
std::optional<Counter> counter_from_name(std::string_view name) noexcept {
  struct Entry {
    std::string_view name;
    Counter value;
  };
  static const std::array<Entry, kCounterCount> table = [] {
    std::array<Entry, kCounterCount> t{};
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      t[i] = Entry{counter_name(c), c};
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

Snapshot snapshot() {
  Snapshot out;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  out.values = r.retired;
  for (const detail::Shard* s : r.live) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      out.values[i] += s->values[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void reset() noexcept {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.retired.fill(0);
  for (detail::Shard* s : r.live) {
    for (auto& v : s->values) v.store(0, std::memory_order_relaxed);
  }
}

Snapshot Snapshot::delta_since(const Snapshot& earlier) const noexcept {
  Snapshot out;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out.values[i] =
        values[i] >= earlier.values[i] ? values[i] - earlier.values[i] : 0;
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"hpsum_trace\": 3,\n  \"enabled\": ";
  out += enabled() ? "true" : "false";
  out += ",\n  \"counters\": {\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out += "    \"";
    out += counter_name(static_cast<Counter>(i));
    out += "\": ";
    out += std::to_string(values[i]);
    out += i + 1 < kCounterCount ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

bool write_file(const std::string& path, std::string_view text) {
  if (path.empty() || path == "-") {
    const std::size_t n = std::fwrite(text.data(), 1, text.size(), stdout);
    return std::fflush(stdout) == 0 && n == text.size();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

bool write_json(const std::string& path) {
  return write_file(path, snapshot().to_json());
}

}  // namespace hpsum::trace
