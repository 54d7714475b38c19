// Wallclock and per-thread CPU timers.
//
// The scaling harness reports *modeled* parallel time (DESIGN.md §2) next
// to measured wallclock: each processing element measures its own busy
// time with ThreadCpuTimer, and the harness takes the max as the critical
// path, which stays meaningful past the host's core count.
#pragma once

#include <chrono>
#include <cstdint>

namespace hpsum::util {

/// Monotonic wallclock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept { reset(); }

  /// Restarts the stopwatch at zero.
  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID).
///
/// On an oversubscribed host, wallclock across threads is meaningless; the
/// CPU time each thread actually consumed is the honest per-PE cost.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() noexcept { reset(); }

  /// Restarts the stopwatch at zero.
  void reset() noexcept { start_ns_ = now_ns(); }

  /// CPU-seconds this thread has consumed since construction/reset.
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }

 private:
  static std::int64_t now_ns() noexcept;
  std::int64_t start_ns_ = 0;
};

}  // namespace hpsum::util
