// Cooperative stackful fibers for the multiplexed mpisim engine
// (docs/MPISIM.md §"Execution engines"). One fiber per simulated rank,
// many fibers per worker thread: a rank body that blocks in recv/barrier
// yields its worker instead of parking an OS thread, which is what lets
// mpisim::run scale to thousands of ranks on a handful of threads.
//
// Implementation: a hand-written x86-64 stack switch (fiber.cpp). It saves
// the System V callee-saved state — rbp, rbx, r12-r15, the MXCSR and the
// x87 control word — on the running stack, swaps rsp, and restores the
// same set from the other stack: no syscall, unlike glibc swapcontext,
// which also swaps the signal mask. A new fiber's first frame is built by
// hand at the 16-byte-aligned top of its stack and returns into the
// trampoline. The sanitizer fiber-switching annotations — TSan's
// __tsan_switch_to_fiber and ASan's __sanitizer_start/finish_switch_fiber —
// keep the full test suite running under the ASan/UBSan and TSan CI jobs.
// The switch does not maintain a CET shadow stack. A fiber is resumed only
// from its owning worker thread; switching is invisible to the code running
// inside (thread_locals resolve to the worker). Other targets have no
// fibers: mpisim::run falls back to one thread per rank.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#if defined(__linux__) && defined(__x86_64__)
#define HPSUM_MPISIM_HAS_FIBERS 1
#else
#define HPSUM_MPISIM_HAS_FIBERS 0
#endif

#if HPSUM_MPISIM_HAS_FIBERS

namespace hpsum::mpisim::detail {

/// A suspendable execution context with its own stack. Not thread-safe:
/// resume() must always be called from the same (worker) thread, and
/// yield() only from inside the running fiber.
class Fiber {
 public:
  /// Creates a suspended fiber; `fn` starts on the first resume(). `fn`
  /// must not let exceptions escape (they cannot cross a context switch).
  Fiber(std::size_t stack_bytes, std::function<void()> fn);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes. Must not be called on a
  /// finished fiber.
  void resume();

  /// Suspends the running fiber, returning control to its resume() caller.
  static void yield();

  /// The fiber currently running on this thread, or null.
  [[nodiscard]] static Fiber* current() noexcept;

  /// True once `fn` has returned; the fiber may not be resumed again.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  static void trampoline();

  void* sp_ = nullptr;        ///< saved stack pointer while suspended
  void* sched_sp_ = nullptr;  ///< resume() caller's saved stack pointer
  std::unique_ptr<std::byte[]> stack_;
  std::size_t stack_bytes_;
  std::function<void()> fn_;
  bool started_ = false;
  bool finished_ = false;
  void* tsan_fiber_ = nullptr;   ///< TSan fiber handle (null when not built)
  void* tsan_sched_ = nullptr;   ///< TSan handle of the resuming thread
  void* asan_sched_fake_ = nullptr;  ///< ASan fake-stack save, scheduler side
  void* asan_fiber_fake_ = nullptr;  ///< ASan fake-stack save, fiber side
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;
};

}  // namespace hpsum::mpisim::detail

#endif  // HPSUM_MPISIM_HAS_FIBERS
