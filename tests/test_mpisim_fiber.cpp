// Unit tests for the multiplexed engine's fiber switch (src/mpisim/fiber.hpp):
// resume/yield ordering, per-fiber floating-point control state, and stack
// alignment at first entry and after a yield.
#include "mpisim/fiber.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace hpsum::mpisim::detail {
namespace {

#if HPSUM_MPISIM_HAS_FIBERS

constexpr std::size_t kStack = 256 * 1024;

/// Hides a pointer's value from the optimizer, which would otherwise fold
/// `addr % alignof(local)` to zero.
std::uintptr_t opaque_address(const void* p) {
  const void* volatile hidden = p;
  return reinterpret_cast<std::uintptr_t>(hidden);
}

/// True when an SSE add rounds upward — reads MXCSR, which fegetround()
/// (x87 control word only in glibc) does not.
bool sse_rounds_up() {
  volatile double one = 1.0;
  volatile double tiny = 1e-30;
  const double sum = one + tiny;
  return sum > 1.0;
}

TEST(MpisimFiber, ThreeFibersPingPongInResumeOrder) {
  std::vector<std::pair<int, int>> log;  // (fiber id, step)
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int id = 0; id < 3; ++id) {
    fibers.push_back(std::make_unique<Fiber>(kStack, [&log, &fibers, id] {
      for (int step = 0; step < 3; ++step) {
        EXPECT_EQ(Fiber::current(), fibers[static_cast<std::size_t>(id)].get());
        log.emplace_back(id, step);
        Fiber::yield();
      }
    }));
  }
  EXPECT_EQ(Fiber::current(), nullptr);
  // Round-robin until all finish; each resume runs exactly one step.
  for (int round = 0; round < 4; ++round) {
    for (const auto& f : fibers) {
      ASSERT_FALSE(f->finished());
      f->resume();
      EXPECT_EQ(Fiber::current(), nullptr);
    }
  }
  for (const auto& f : fibers) EXPECT_TRUE(f->finished());
  std::vector<std::pair<int, int>> want;
  for (int step = 0; step < 3; ++step) {
    for (int id = 0; id < 3; ++id) want.emplace_back(id, step);
  }
  EXPECT_EQ(log, want);
}

TEST(MpisimFiber, RoundingModeStaysWithTheFiberThatSetIt) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  bool up_after_resume = false;
  bool sse_up_after_resume = false;
  Fiber setter(kStack, [&] {
    std::fesetround(FE_UPWARD);
    Fiber::yield();
    up_after_resume = std::fegetround() == FE_UPWARD;
    sse_up_after_resume = sse_rounds_up();
    std::fesetround(FE_TONEAREST);
  });
  int sibling_mode = -1;
  bool sibling_sse_up = true;
  Fiber sibling(kStack, [&] {
    sibling_mode = std::fegetround();
    sibling_sse_up = sse_rounds_up();
  });

  setter.resume();  // sets FE_UPWARD, then yields
  EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "leaked into the scheduler";
  EXPECT_FALSE(sse_rounds_up()) << "MXCSR leaked into the scheduler";
  sibling.resume();
  EXPECT_TRUE(sibling.finished());
  EXPECT_EQ(sibling_mode, FE_TONEAREST) << "leaked into a sibling fiber";
  EXPECT_FALSE(sibling_sse_up) << "MXCSR leaked into a sibling fiber";
  setter.resume();
  EXPECT_TRUE(setter.finished());
  EXPECT_TRUE(up_after_resume) << "x87 rounding mode lost across the yield";
  EXPECT_TRUE(sse_up_after_resume) << "MXCSR rounding mode lost across yield";
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(MpisimFiber, AlignedLocalsAreAlignedAtEntryAndAfterYield) {
  std::uintptr_t at_entry = 1;
  std::uintptr_t after_yield = 1;
  Fiber f(kStack, [&] {
    alignas(16) unsigned char first[16] = {};
    at_entry = opaque_address(first) % 16;
    Fiber::yield();
    alignas(16) unsigned char second[16] = {};
    after_yield = opaque_address(second) % 16;
  });
  f.resume();
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(at_entry, 0U);
  EXPECT_EQ(after_yield, 0U);
}

#endif  // HPSUM_MPISIM_HAS_FIBERS

}  // namespace
}  // namespace hpsum::mpisim::detail
