// Steady-state allocation count of the sparse HP allreduce on the
// multiplexed engine. This executable replaces the global operator new
// with a counting one, so it runs on its own: every heap allocation the
// process makes between two barriers is counted.
//
// After two warm-up rounds (which touch the per-thread trace state and
// first-use statics), Comm::allreduce of one sparse HP(6,3) value over 16
// fiber ranks must allocate nothing, and allreduce_hp_value at most twice
// per rank: its HpDyn result and its Op's status cell.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/hp_dyn.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (bytes + align - 1) / align * align)
                : std::malloc(bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new(std::size_t bytes, std::align_val_t al) {
  return counted_alloc(bytes, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t bytes, std::align_val_t al) {
  return counted_alloc(bytes, static_cast<std::size_t>(al));
}
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(bytes, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(bytes, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hpsum::mpisim {
namespace {

constexpr int kRanks = 16;
const HpConfig kCfg{6, 3};

/// Runs 16 fiber ranks on one worker. Each rank builds its value, datatype
/// and sparse op, then calls `step` in three rounds, each between barriers
/// while rank 0 reads the allocation counter on either side; returns the
/// allocations of the last round summed over every rank.
template <class Step>
std::uint64_t measured_step_allocations(const Step& step) {
  RunOptions opts;
  opts.mode = RunMode::kMultiplexed;
  opts.workers = 1;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  run(kRanks,
      [&](Comm& comm) {
        HpDyn local(kCfg);
        local += 0.125 * (comm.rank() + 1) - 1.0;
        const Datatype dt = hp_datatype(kCfg);
        const Op op = hp_sum_op(kCfg, Wire::kSparse);
        // Rounds 0 and 1 warm up (per-thread trace state, first-use
        // statics); the counts of round 2 are returned.
        for (int round = 0; round < 3; ++round) {
          comm.barrier();
          if (comm.rank() == 0) before = g_allocations.load();
          comm.barrier();  // no rank starts the step before the first read
          step(comm, local, dt, op);
          comm.barrier();  // every rank has finished it before the second
          if (comm.rank() == 0) after = g_allocations.load();
        }
      },
      opts);
  return after - before;
}

/// sum_{r=0}^{15} (0.125 (r+1) - 1) = 0.125 * 136 - 16 = 1.
constexpr double kTotal = 1.0;

constexpr ReduceAlgo kAlgos[] = {
    ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
    ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving};

TEST(MpisimAlloc, SparseAllreduceAllocatesNothingInSteadyState) {
  for (const ReduceAlgo algo : kAlgos) {
    std::array<std::array<std::byte, 48>, kRanks> results{};
    const std::uint64_t allocs = measured_step_allocations(
        [&](Comm& comm, const HpDyn& local, const Datatype& dt,
            const Op& op) {
          std::array<std::byte, 48> send{};
          local.to_bytes(send.data());
          comm.allreduce(send.data(),
                         results[static_cast<std::size_t>(comm.rank())].data(),
                         1, dt, op, algo);
        });
    EXPECT_EQ(allocs, 0U) << "algo=" << static_cast<int>(algo);
    for (const auto& bytes : results) {
      HpDyn total(kCfg);
      total.from_bytes(bytes.data());
      EXPECT_EQ(total.to_double(), kTotal);
    }
  }
}

TEST(MpisimAlloc, AllreduceHpValueAllocatesAtMostTwicePerRank) {
  for (const ReduceAlgo algo : kAlgos) {
    std::array<double, kRanks> totals{};
    const std::uint64_t allocs = measured_step_allocations(
        [&](Comm& comm, const HpDyn& local, const Datatype&, const Op&) {
          const HpDyn total =
              allreduce_hp_value(comm, local, algo, Wire::kSparse);
          totals[static_cast<std::size_t>(comm.rank())] = total.to_double();
        });
    EXPECT_LE(allocs, std::uint64_t{2 * kRanks})
        << "algo=" << static_cast<int>(algo);
    for (const double t : totals) EXPECT_EQ(t, kTotal);
  }
}

}  // namespace
}  // namespace hpsum::mpisim
