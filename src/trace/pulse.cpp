#include "trace/pulse.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace hpsum::trace::pulse {

namespace {

/// Sampler state. Function-local static (like the trace registry) so the
/// disarm-at-exit path never races static destruction order.
struct Sampler {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread worker;
  std::FILE* jsonl = nullptr;
  Config cfg;
  std::uint64_t epoch_ms = 0;
  std::chrono::steady_clock::time_point t0;
  Snapshot prev;
  std::atomic<std::uint64_t> seq{0};
  std::atomic<bool> armed{false};
};

Sampler& sampler() {
  static Sampler s;
  return s;
}

std::uint64_t now_epoch_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// One sampler tick: snapshot, diff, append the JSONL line. Caller holds
/// no locks the probes need.
void tick(Sampler& s) {
  const Snapshot cur = snapshot();
  const Snapshot delta = cur.delta_since(s.prev);
  s.prev = cur;
  const auto ts_ms =
      s.epoch_ms +
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - s.t0)
              .count());
  const std::uint64_t n = s.seq.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string line = jsonl_tick(delta, ts_ms, n);
  line += '\n';
  std::fputs(line.c_str(), s.jsonl);
  std::fflush(s.jsonl);
}

void run(Sampler& s) {
  std::unique_lock<std::mutex> lock(s.mu);
  while (!s.stop) {
    s.cv.wait_for(lock, s.cfg.interval, [&s] { return s.stop; });
    if (s.stop) break;
    tick(s);
  }
  // Final tick: a run shorter than one interval still exports its end
  // state, and every stream ends with the totals that actually happened.
  tick(s);
}

}  // namespace

bool armed() noexcept { return sampler().armed.load(std::memory_order_relaxed); }

std::uint64_t ticks() noexcept {
  return sampler().seq.load(std::memory_order_relaxed);
}

bool arm(const Config& cfg) {
  Sampler& s = sampler();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.armed.load(std::memory_order_relaxed)) return false;
  std::FILE* f = std::fopen(cfg.jsonl_path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t epoch = now_epoch_ms();
  std::string header = jsonl_header(cfg, epoch);
  header += '\n';
  std::fputs(header.c_str(), f);
  std::fflush(f);
  if (!enabled()) {
    // Compiled-out build: the header (enabled:false) is the whole stream.
    std::fclose(f);
    return false;
  }
  s.jsonl = f;
  s.cfg = cfg;
  s.epoch_ms = epoch;
  s.t0 = std::chrono::steady_clock::now();
  s.prev = Snapshot{};
  s.seq.store(0, std::memory_order_relaxed);
  s.stop = false;
  s.worker = std::thread([&s] { run(s); });
  s.armed.store(true, std::memory_order_relaxed);
  return true;
}

bool arm_from_env() {
  const char* path = std::getenv("HPSUM_PULSE");
  if (path == nullptr || path[0] == '\0' ||
      (path[0] == '0' && path[1] == '\0')) {
    return false;
  }
  Config cfg;
  if (!(path[0] == '1' && path[1] == '\0')) cfg.jsonl_path = path;
  if (const char* ms = std::getenv("HPSUM_PULSE_INTERVAL_MS")) {
    const long v = std::strtol(ms, nullptr, 10);
    if (v > 0) cfg.interval = std::chrono::milliseconds(v);
  }
  return arm(cfg);
}

void disarm() noexcept {
  Sampler& s = sampler();
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    if (!s.armed.load(std::memory_order_relaxed)) return;
    s.stop = true;
  }
  s.cv.notify_all();
  if (s.worker.joinable()) s.worker.join();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.jsonl != nullptr) std::fclose(s.jsonl);
  s.jsonl = nullptr;
  s.armed.store(false, std::memory_order_relaxed);
}

std::string jsonl_header(const Config& cfg, std::uint64_t epoch_ms) {
  std::string out = "{\"hpsum_pulse\": 2, \"enabled\": ";
  out += enabled() ? "true" : "false";
  out += ", \"interval_ms\": ";
  out += std::to_string(cfg.interval.count());
  out += ", \"epoch_ms\": ";
  out += std::to_string(epoch_ms);
  out += "}";
  return out;
}

std::string jsonl_tick(const Snapshot& delta, std::uint64_t ts_ms,
                       std::uint64_t seq) {
  std::string out = "{\"seq\": ";
  out += std::to_string(seq);
  out += ", \"ts_ms\": ";
  out += std::to_string(ts_ms);
  out += ", \"counters\": {";
  bool first = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (delta.values[i] == 0) continue;  // deltas: nonzero entries only
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += counter_name(static_cast<Counter>(i));
    out += "\": ";
    out += std::to_string(delta.values[i]);
  }
  out += "}}";
  return out;
}

}  // namespace hpsum::trace::pulse
