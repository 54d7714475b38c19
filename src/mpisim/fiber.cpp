#include "mpisim/fiber.hpp"

#if HPSUM_MPISIM_HAS_FIBERS

#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

#if defined(__SANITIZE_THREAD__) && __has_include(<sanitizer/tsan_interface.h>)
#define HPSUM_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#else
#define HPSUM_FIBER_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__) && \
    __has_include(<sanitizer/common_interface_defs.h>)
#define HPSUM_FIBER_ASAN 1
#include <sanitizer/common_interface_defs.h>
#else
#define HPSUM_FIBER_ASAN 0
#endif

// void hpsum_mpisim_fiber_switch(void** save_sp, void* load_sp)
//
// Pushes the callee-saved registers, stores the x87 control word and the
// MXCSR below them, saves rsp to *save_sp, loads load_sp and pops the same
// frame from there (SwitchFrame below). Caller-saved registers need no
// saving: to the compiler this is an ordinary call.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl hpsum_mpisim_fiber_switch
  .hidden hpsum_mpisim_fiber_switch
  .type hpsum_mpisim_fiber_switch, @function
hpsum_mpisim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size hpsum_mpisim_fiber_switch, .-hpsum_mpisim_fiber_switch
  .popsection
)");

extern "C" void hpsum_mpisim_fiber_switch(void** save_sp, void* load_sp);

namespace hpsum::mpisim::detail {

namespace {
thread_local Fiber* tl_current_fiber = nullptr;

/// The frame hpsum_mpisim_fiber_switch leaves at the saved rsp and pops,
/// lowest address first; `ret_pad` exists only in a new fiber's frame.
struct SwitchFrame {
  std::uint64_t x87_cw;
  std::uint64_t mxcsr;
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  std::uint64_t ret;       ///< where the switch returns: the trampoline
  std::uint64_t ret_pad;   ///< the trampoline's own (null) return address
};
static_assert(sizeof(SwitchFrame) == 80);
}  // namespace

Fiber* Fiber::current() noexcept { return tl_current_fiber; }

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> fn)
    : stack_(new std::byte[stack_bytes]),
      stack_bytes_(stack_bytes),
      fn_(std::move(fn)) {
  assert(stack_bytes_ >= 2 * sizeof(SwitchFrame) && "fiber stack too small");
  // The first resume "returns" into the trampoline from a hand-built
  // switch frame. `ret` sits 16-byte aligned, so the trampoline starts with
  // rsp % 16 == 8, as after a call; its null return address ends unwinds.
  // The fiber starts with the constructing thread's floating-point control
  // state.
  const auto top = (reinterpret_cast<std::uintptr_t>(stack_.get()) +
                    stack_bytes_) & ~std::uintptr_t{15};
  SwitchFrame frame{};
  std::uint16_t x87_cw = 0;
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  frame.x87_cw = x87_cw;
  frame.mxcsr = __builtin_ia32_stmxcsr();
  frame.ret = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
  const std::uintptr_t at = top - sizeof(SwitchFrame);
  std::memcpy(reinterpret_cast<void*>(at), &frame, sizeof frame);
  sp_ = reinterpret_cast<void*>(at);
#if HPSUM_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  assert((!started_ || finished_) &&
         "destroying a fiber that is suspended mid-body");
#if HPSUM_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline() {
  Fiber* f = tl_current_fiber;
#if HPSUM_FIBER_ASAN
  // First entry: record the resuming thread's stack so yields can
  // annotate the switch back (the worker's stack does not move).
  __sanitizer_finish_switch_fiber(nullptr, &f->asan_sched_bottom_,
                                  &f->asan_sched_size_);
#endif
  f->fn_();
  f->finished_ = true;
  // There is nothing to return to — never return; the final yield
  // releases control for good (finished fibers are not resumed).
  for (;;) Fiber::yield();
}

void Fiber::resume() {
  assert(!finished_ && "resuming a finished fiber");
  assert(tl_current_fiber == nullptr && "nested fibers are not supported");
  started_ = true;
  tl_current_fiber = this;
#if HPSUM_FIBER_ASAN
  __sanitizer_start_switch_fiber(&asan_sched_fake_, stack_.get(),
                                 stack_bytes_);
#endif
#if HPSUM_FIBER_TSAN
  tsan_sched_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  hpsum_mpisim_fiber_switch(&sched_sp_, sp_);
#if HPSUM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(asan_sched_fake_, nullptr, nullptr);
#endif
  tl_current_fiber = nullptr;
}

void Fiber::yield() {
  Fiber* f = tl_current_fiber;
  assert(f != nullptr && "Fiber::yield called outside a fiber");
#if HPSUM_FIBER_ASAN
  // A finishing fiber passes null so ASan releases its fake stack.
  __sanitizer_start_switch_fiber(f->finished_ ? nullptr : &f->asan_fiber_fake_,
                                 f->asan_sched_bottom_, f->asan_sched_size_);
#endif
#if HPSUM_FIBER_TSAN
  __tsan_switch_to_fiber(f->tsan_sched_, 0);
#endif
  hpsum_mpisim_fiber_switch(&f->sp_, f->sched_sp_);
#if HPSUM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(f->asan_fiber_fake_, &f->asan_sched_bottom_,
                                  &f->asan_sched_size_);
#endif
}

}  // namespace hpsum::mpisim::detail

#endif  // HPSUM_MPISIM_HAS_FIBERS
