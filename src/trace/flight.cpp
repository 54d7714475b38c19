#include "trace/flight.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <tuple>
#include <vector>

namespace hpsum::trace::flight {

namespace {

#if HPSUM_TRACE_ENABLED

/// Nanoseconds since the recorder's process-local epoch (captured on first
/// use, so timelines start near zero instead of at machine uptime).
std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  const auto d = std::chrono::steady_clock::now() - epoch;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

/// Packs/unpacks the non-timestamp header word of a record: id in the low
/// 16 bits, phase in the next 16, reserved zeros above.
constexpr std::uint64_t pack_header(EventId id, Phase ph) noexcept {
  return static_cast<std::uint64_t>(id) |
         (static_cast<std::uint64_t>(ph) << 16);
}

/// One thread's ring. Written only by the owning thread: four relaxed word
/// stores per record, then a release store of the monotone write index so
/// a reader that acquires the index sees complete records. A full ring
/// overwrites its oldest record (drop-oldest) and counts the loss.
struct Ring {
  TrackInfo track;
  std::uint64_t ordinal = 0;  ///< registration order; default tid
  std::atomic<std::uint64_t> w{0};
  std::array<std::atomic<std::uint64_t>, kRingCapacity * 4> words{};

  void push(EventId id, Phase ph, std::uint64_t a0, std::uint64_t a1) noexcept {
    const std::uint64_t wi = w.load(std::memory_order_relaxed);
    const std::size_t slot = static_cast<std::size_t>(wi % kRingCapacity) * 4;
    words[slot + 0].store(now_ns(), std::memory_order_relaxed);
    words[slot + 1].store(pack_header(id, ph), std::memory_order_relaxed);
    words[slot + 2].store(a0, std::memory_order_relaxed);
    words[slot + 3].store(a1, std::memory_order_relaxed);
    w.store(wi + 1, std::memory_order_release);
    if (wi >= kRingCapacity) count(Counter::kFlightDropped);
  }

  /// Copies out the retained records, oldest first. Concurrent-writer safe:
  /// records overwritten while we read (the ring's wrap point) are detected
  /// by re-reading the write index and dropped rather than returned torn.
  [[nodiscard]] std::vector<Event> snapshot_events() const {
    const std::uint64_t w1 = w.load(std::memory_order_acquire);
    const std::uint64_t n = w1 < kRingCapacity ? w1 : kRingCapacity;
    const std::uint64_t first = w1 - n;
    std::vector<Event> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = first; i < w1; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i % kRingCapacity) * 4;
      Event e;
      e.ts_ns = words[slot + 0].load(std::memory_order_relaxed);
      const std::uint64_t hdr = words[slot + 1].load(std::memory_order_relaxed);
      e.id = static_cast<std::uint16_t>(hdr & 0xffff);
      e.phase = static_cast<std::uint16_t>((hdr >> 16) & 0xffff);
      e.arg0 = words[slot + 2].load(std::memory_order_relaxed);
      e.arg1 = words[slot + 3].load(std::memory_order_relaxed);
      out.push_back(e);
    }
    const std::uint64_t w2 = w.load(std::memory_order_acquire);
    const std::uint64_t safe_first =
        w2 < kRingCapacity ? 0 : w2 - kRingCapacity;
    if (safe_first > first) {
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(safe_first - first, n)));
    }
    return out;
  }
};

/// Process-wide ring registry. Function-local static so it outlives every
/// thread_local RingOwner (TLS destructors run before statics').
struct Registry {
  std::mutex mu;
  std::vector<Ring*> live;
  std::vector<ThreadEvents> retired;
  std::uint64_t next_ordinal = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Owns the calling thread's ring; on thread exit the retained events are
/// copied into the registry so short-lived mpisim ranks and jthread PEs
/// still appear in the export.
struct RingOwner {
  Ring* ring = nullptr;

  Ring& get() {
    if (ring == nullptr) {
      auto* fresh = new Ring;
      Registry& r = registry();
      const std::lock_guard<std::mutex> lock(r.mu);
      fresh->ordinal = r.next_ordinal++;
      fresh->track.tid = static_cast<int>(fresh->ordinal);
      r.live.push_back(fresh);
      ring = fresh;
    }
    return *ring;
  }

  ~RingOwner() {
    if (ring == nullptr) return;
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    std::erase(r.live, ring);
    ThreadEvents te;
    te.track = ring->track;
    te.events = ring->snapshot_events();
    if (!te.events.empty()) r.retired.push_back(std::move(te));
    delete ring;
  }

  RingOwner() = default;
  RingOwner(const RingOwner&) = delete;
  RingOwner& operator=(const RingOwner&) = delete;
};

RingOwner& owner() {
  thread_local RingOwner o;
  return o;
}

bool env_wants_arming() noexcept {
  const char* v = std::getenv("HPSUM_FLIGHT");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

#endif  // HPSUM_TRACE_ENABLED

/// The ambient correlation key (see ReductionScope). Process-global by
/// design: the PEs of a reduction are different threads from the driver.
std::atomic<std::uint64_t> g_next_reduction_id{0};
std::atomic<std::uint64_t> g_ambient_reduction_id{0};

/// JSON string escaping for track labels (short internal names, but keep
/// the export well-formed whatever a caller passes).
void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool comma = true) {
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(v);
  if (comma) out += ", ";
}

/// Decodes a record's two argument words into Chrome "args" per the
/// EventId contract documented in flight.hpp.
void append_args(std::string& out, const Event& e) {
  out += "\"args\": {";
  switch (static_cast<EventId>(e.id)) {
    case EventId::kReduction:
      append_kv(out, "reduction_id", e.arg0);
      append_kv(out, "items", e.arg1, false);
      break;
    case EventId::kLocalReduce:
    case EventId::kPeBusy:
      append_kv(out, "reduction_id", e.arg0);
      append_kv(out, "elements", e.arg1, false);
      break;
    case EventId::kMerge:
      append_kv(out, "reduction_id", e.arg0);
      append_kv(out, "partials", e.arg1, false);
      break;
    case EventId::kMpiSend:
    case EventId::kMpiRecv:
      append_kv(out, "rank", e.arg0 >> 32);
      append_kv(out, "peer", e.arg0 & 0xffffffffull);
      append_kv(out, "reduction_id", e.arg1 >> 32);
      append_kv(out, "bytes", e.arg1 & 0xffffffffull, false);
      break;
    case EventId::kMpiReduce:
    case EventId::kCudaMemcpyH2D:
    case EventId::kCudaMemcpyD2H:
    case EventId::kPhiOffload:
      append_kv(out, "reduction_id", e.arg0);
      append_kv(out, "bytes", e.arg1, false);
      break;
    case EventId::kCudaLaunch:
      append_kv(out, "reduction_id", e.arg0);
      append_kv(out, "threads", e.arg1, false);
      break;
    case EventId::kStatusRaise: {
      out += "\"status\": \"";
      append_escaped(out, to_string(static_cast<HpStatus>(
                              e.arg0 & kHpStatusMask)));
      out += "\", ";
      append_kv(out, "mask", e.arg0);
      append_kv(out, "reduction_id", e.arg1, false);
      break;
    }
    case EventId::kCount:
      append_kv(out, "arg0", e.arg0);
      append_kv(out, "arg1", e.arg1, false);
      break;
  }
  out += '}';
}

/// Little-endian binary writers: the dump format is pinned LE so
/// tools/flight2chrome.py decodes it with a fixed struct layout.
void put_u16(std::string& out, std::uint16_t v) {
  out += static_cast<char>(v & 0xff);
  out += static_cast<char>((v >> 8) & 0xff);
}
void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}
void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffull));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

bool write_file(const std::string& path, const std::string& body,
                bool binary) {
  std::FILE* f = std::fopen(path.c_str(), binary ? "wb" : "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return n == body.size();
}

#if HPSUM_TRACE_ENABLED
/// Arms the recorder at startup when HPSUM_FLIGHT is set in the
/// environment (any value other than empty or "0").
[[maybe_unused]] const bool g_env_armed = [] {
  if (env_wants_arming()) detail::g_armed.store(true, std::memory_order_relaxed);
  return true;
}();
#endif

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

void record(EventId id, Phase ph, std::uint64_t a0, std::uint64_t a1) noexcept {
#if HPSUM_TRACE_ENABLED
  owner().get().push(id, ph, a0, a1);
#else
  (void)id;
  (void)ph;
  (void)a0;
  (void)a1;
#endif
}

void record_status_raise(std::uint8_t mask) noexcept {
  instant(EventId::kStatusRaise, mask, current_reduction_id());
}

}  // namespace detail

std::string_view event_name(EventId id) noexcept {
  switch (id) {
    case EventId::kReduction: return "reduction";
    case EventId::kLocalReduce: return "local.reduce";
    case EventId::kPeBusy: return "pe.busy";
    case EventId::kMerge: return "merge";
    case EventId::kMpiSend: return "mpi.send";
    case EventId::kMpiRecv: return "mpi.recv";
    case EventId::kMpiReduce: return "mpi.reduce";
    case EventId::kCudaLaunch: return "cuda.launch";
    case EventId::kCudaMemcpyH2D: return "cuda.memcpy_h2d";
    case EventId::kCudaMemcpyD2H: return "cuda.memcpy_d2h";
    case EventId::kPhiOffload: return "phi.offload";
    case EventId::kStatusRaise: return "status.raise";
    case EventId::kCount: break;
  }
  return "unknown";
}

void arm() noexcept {
#if HPSUM_TRACE_ENABLED
  detail::g_armed.store(true, std::memory_order_relaxed);
#endif
}

void disarm() noexcept {
  detail::g_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t current_reduction_id() noexcept {
  return g_ambient_reduction_id.load(std::memory_order_relaxed);
}

std::uint64_t next_reduction_id() noexcept {
  return g_next_reduction_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

ReductionScope::ReductionScope(std::uint64_t items) noexcept {
#if HPSUM_TRACE_ENABLED
  id_ = next_reduction_id();
  items_ = items;
  prev_ = g_ambient_reduction_id.exchange(id_, std::memory_order_relaxed);
  emit(EventId::kReduction, Phase::kBegin, id_, items_);
#else
  (void)items;
#endif
}

ReductionScope::~ReductionScope() {
#if HPSUM_TRACE_ENABLED
  emit(EventId::kReduction, Phase::kEnd, id_, items_);
  g_ambient_reduction_id.store(prev_, std::memory_order_relaxed);
#endif
}

void set_track(std::string_view label, int pid, int tid) {
#if HPSUM_TRACE_ENABLED
  if (!armed()) return;
  Ring& ring = owner().get();
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  ring.track.label.assign(label);
  ring.track.pid = pid;
  ring.track.tid = tid;
#else
  (void)label;
  (void)pid;
  (void)tid;
#endif
}

std::vector<ThreadEvents> collect(std::size_t last_k) {
  std::vector<ThreadEvents> out;
#if HPSUM_TRACE_ENABLED
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    out = r.retired;
    for (const Ring* ring : r.live) {
      ThreadEvents te;
      te.track = ring->track;
      te.events = ring->snapshot_events();
      if (!te.events.empty()) out.push_back(std::move(te));
    }
  }
  if (last_k > 0) {
    for (ThreadEvents& te : out) {
      if (te.events.size() > last_k) {
        te.events.erase(te.events.begin(),
                        te.events.end() - static_cast<std::ptrdiff_t>(last_k));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadEvents& a, const ThreadEvents& b) {
              return std::tie(a.track.label, a.track.pid, a.track.tid) <
                     std::tie(b.track.label, b.track.pid, b.track.tid);
            });
#else
  (void)last_k;
#endif
  return out;
}

std::string to_chrome_json(const std::vector<ThreadEvents>& threads) {
  // Chrome's pid is a flat integer; map each distinct (label, pid) pair to
  // a synthetic one in sorted-first-seen order and name it with metadata
  // events so Perfetto shows "mpisim 3" instead of a bare number.
  std::vector<std::pair<std::string, int>> lanes;
  auto lane_pid = [&lanes](const TrackInfo& t) {
    const std::pair<std::string, int> key{t.label, t.pid};
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i] == key) return static_cast<int>(i + 1);
    }
    lanes.push_back(key);
    return static_cast<int>(lanes.size());
  };

  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
  };

  for (const ThreadEvents& te : threads) {
    const int pid = lane_pid(te.track);
    comma();
    out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": ";
    out += std::to_string(pid);
    out += ", \"tid\": 0, \"args\": {\"name\": \"";
    append_escaped(out, te.track.label);
    out += ' ';
    out += std::to_string(te.track.pid);
    out += "\"}}";
    comma();
    out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": ";
    out += std::to_string(pid);
    out += ", \"tid\": ";
    out += std::to_string(te.track.tid);
    out += ", \"args\": {\"name\": \"";
    append_escaped(out, te.track.label);
    out += "/t";
    out += std::to_string(te.track.tid);
    out += "\"}}";
  }

  for (const ThreadEvents& te : threads) {
    const int pid = lane_pid(te.track);
    for (const Event& e : te.events) {
      comma();
      const auto ph = static_cast<Phase>(e.phase);
      out += "{\"name\": \"";
      out += event_name(static_cast<EventId>(e.id));
      out += "\", \"ph\": \"";
      out += ph == Phase::kBegin ? 'B' : ph == Phase::kEnd ? 'E' : 'i';
      out += '"';
      if (ph == Phase::kInstant) out += ", \"s\": \"t\"";
      out += ", \"pid\": ";
      out += std::to_string(pid);
      out += ", \"tid\": ";
      out += std::to_string(te.track.tid);
      // Chrome timestamps are microseconds; keep ns resolution as a
      // fractional part.
      out += ", \"ts\": ";
      out += std::to_string(e.ts_ns / 1000);
      out += '.';
      char frac[8];
      std::snprintf(frac, sizeof frac, "%03u",
                    static_cast<unsigned>(e.ts_ns % 1000));
      out += frac;
      out += ", ";
      append_args(out, e);
      out += '}';
    }
  }
  out += "\n]}\n";
  return out;
}

bool dump_chrome_json(const std::string& path) {
  const std::string json = to_chrome_json(collect());
  if (path.empty() || path == "-") {
    std::fputs(json.c_str(), stdout);
    return true;
  }
  return write_file(path, json, /*binary=*/false);
}

bool dump_binary(const std::string& path) {
  if (path.empty() || path == "-") return false;
  const std::vector<ThreadEvents> threads = collect();
  std::string out;
  out += "HPFLIGT1";
  put_u32(out, 2);  // format version
  put_u32(out, static_cast<std::uint32_t>(threads.size()));
  for (const ThreadEvents& te : threads) {
    const std::string& label = te.track.label;
    put_u16(out, static_cast<std::uint16_t>(
                     label.size() > 0xffff ? 0xffff : label.size()));
    out.append(label.data(), label.size() > 0xffff ? 0xffff : label.size());
    put_u32(out, static_cast<std::uint32_t>(te.track.pid));
    put_u32(out, static_cast<std::uint32_t>(te.track.tid));
    put_u64(out, te.events.size());
    for (const Event& e : te.events) {
      put_u64(out, e.ts_ns);
      put_u16(out, e.id);
      put_u16(out, e.phase);
      put_u32(out, e.reserved);
      put_u64(out, e.arg0);
      put_u64(out, e.arg1);
    }
  }
  return write_file(path, out, /*binary=*/true);
}

void reset() noexcept {
#if HPSUM_TRACE_ENABLED
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.retired.clear();
  for (Ring* ring : r.live) {
    ring->w.store(0, std::memory_order_release);
  }
#endif
}

}  // namespace hpsum::trace::flight
