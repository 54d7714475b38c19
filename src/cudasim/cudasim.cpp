#include "cudasim/cudasim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "trace/flight.hpp"
#include "util/timer.hpp"

namespace hpsum::cudasim {

namespace flight = trace::flight;

Device::Device(DeviceProps props) : props_(std::move(props)) {
  if (props_.max_concurrent_threads < 1 || props_.sim_workers < 1 ||
      props_.transfer_bandwidth <= 0.0) {
    throw std::invalid_argument("cudasim: bad DeviceProps");
  }
}

Device::~Device() = default;

void* Device::dmalloc(std::size_t bytes) {
  auto block = std::make_unique<std::byte[]>(bytes);  // value-initialized
  void* ptr = block.get();
  allocations_.push_back(std::move(block));
  return ptr;
}

void Device::dfree(void* ptr) {
  const auto it =
      std::find_if(allocations_.begin(), allocations_.end(),
                   [&](const auto& blk) { return blk.get() == ptr; });
  if (it == allocations_.end()) {
    throw std::invalid_argument("cudasim: dfree of unknown pointer");
  }
  allocations_.erase(it);
}

void Device::memcpy_h2d(void* dst, const void* src, std::size_t bytes) {
  const flight::Span copy_span(flight::EventId::kCudaMemcpyH2D,
                               flight::current_reduction_id(), bytes);
  std::memcpy(dst, src, bytes);
  transfer_seconds_ += static_cast<double>(bytes) / props_.transfer_bandwidth;
}

void Device::memcpy_d2h(void* dst, const void* src, std::size_t bytes) {
  const flight::Span copy_span(flight::EventId::kCudaMemcpyD2H,
                               flight::current_reduction_id(), bytes);
  std::memcpy(dst, src, bytes);
  transfer_seconds_ += static_cast<double>(bytes) / props_.transfer_bandwidth;
}

LaunchStats Device::launch(int grid_dim, int block_dim, const Kernel& kernel) {
  if (grid_dim < 1 || block_dim < 1) {
    throw std::invalid_argument("cudasim: launch dims must be >= 1");
  }
  const std::uint64_t retries_before =
      cas_retries_.load(std::memory_order_relaxed);
  const int workers = std::min(props_.sim_workers, grid_dim);
  std::atomic<int> next_block{0};
  std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);
  const std::uint64_t rid = flight::current_reduction_id();
  const flight::Span launch_span(
      flight::EventId::kCudaLaunch, rid,
      static_cast<std::uint64_t>(grid_dim) *
          static_cast<std::uint64_t>(block_dim));

  util::WallTimer wall;
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        flight::set_track("cudasim", 0, w);
        const flight::Span busy_span(flight::EventId::kPeBusy, rid,
                                     static_cast<std::uint64_t>(block_dim));
        util::ThreadCpuTimer cpu;
        ThreadCtx ctx;
        ctx.block_dim = block_dim;
        ctx.grid_dim = grid_dim;
        for (;;) {
          const int b = next_block.fetch_add(1, std::memory_order_relaxed);
          if (b >= grid_dim) break;
          ctx.block_idx = b;
          for (int t = 0; t < block_dim; ++t) {
            ctx.thread_idx = t;
            kernel(ctx);
          }
        }
        busy[static_cast<std::size_t>(w)] = cpu.seconds();
      });
    }
  }

  LaunchStats stats;
  stats.measured_wall = wall.seconds();
  stats.total_threads = grid_dim * block_dim;
  for (const double b : busy) stats.busy_total += b;
  const int effective =
      std::min(stats.total_threads, props_.max_concurrent_threads);
  stats.modeled_kernel_time = stats.busy_total / static_cast<double>(effective);
  stats.cas_retries =
      cas_retries_.load(std::memory_order_relaxed) - retries_before;
  return stats;
}

LaunchStats Device::launch_phased(int grid_dim, int block_dim, int phases,
                                  std::size_t shared_bytes,
                                  const PhasedKernel& kernel) {
  if (grid_dim < 1 || block_dim < 1 || phases < 1) {
    throw std::invalid_argument("cudasim: launch_phased dims must be >= 1");
  }
  const std::uint64_t retries_before =
      cas_retries_.load(std::memory_order_relaxed);
  const int workers = std::min(props_.sim_workers, grid_dim);
  std::atomic<int> next_block{0};
  std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);
  const std::uint64_t rid = flight::current_reduction_id();
  const flight::Span launch_span(
      flight::EventId::kCudaLaunch, rid,
      static_cast<std::uint64_t>(grid_dim) *
          static_cast<std::uint64_t>(block_dim));

  util::WallTimer wall;
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        flight::set_track("cudasim", 0, w);
        const flight::Span busy_span(flight::EventId::kPeBusy, rid,
                                     static_cast<std::uint64_t>(block_dim));
        util::ThreadCpuTimer cpu;
        std::vector<std::byte> shared(shared_bytes);
        ThreadCtx ctx;
        ctx.block_dim = block_dim;
        ctx.grid_dim = grid_dim;
        for (;;) {
          const int b = next_block.fetch_add(1, std::memory_order_relaxed);
          if (b >= grid_dim) break;
          ctx.block_idx = b;
          std::fill(shared.begin(), shared.end(), std::byte{0});
          // Phase-by-phase over the whole block: every thread finishes
          // phase p before any starts p+1 — the barrier semantics.
          for (int phase = 0; phase < phases; ++phase) {
            for (int t = 0; t < block_dim; ++t) {
              ctx.thread_idx = t;
              kernel(ctx, shared.data(), phase);
            }
          }
        }
        busy[static_cast<std::size_t>(w)] = cpu.seconds();
      });
    }
  }

  LaunchStats stats;
  stats.measured_wall = wall.seconds();
  stats.total_threads = grid_dim * block_dim;
  for (const double b : busy) stats.busy_total += b;
  const int effective =
      std::min(stats.total_threads, props_.max_concurrent_threads);
  stats.modeled_kernel_time = stats.busy_total / static_cast<double>(effective);
  stats.cas_retries =
      cas_retries_.load(std::memory_order_relaxed) - retries_before;
  return stats;
}

std::uint64_t Device::atomic_cas_u64(std::uint64_t* addr,
                                     std::uint64_t expected,
                                     std::uint64_t desired) noexcept {
  std::atomic_ref<std::uint64_t> ref(*addr);
  std::uint64_t old = expected;
  ref.compare_exchange_strong(old, desired, std::memory_order_relaxed,
                              std::memory_order_relaxed);
  return old;  // CUDA atomicCAS semantics: always returns the old value
}

std::uint64_t Device::atomic_add_u64_cas(std::uint64_t* addr,
                                         std::uint64_t value) noexcept {
  std::atomic_ref<std::uint64_t> ref(*addr);
  std::uint64_t old = ref.load(std::memory_order_relaxed);
  for (;;) {
    if (ref.compare_exchange_weak(old, old + value,
                                  std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
      return old;
    }
    cas_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t Device::atomic_add_u64_native(std::uint64_t* addr,
                                            std::uint64_t value) noexcept {
  std::atomic_ref<std::uint64_t> ref(*addr);
  return ref.fetch_add(value, std::memory_order_relaxed);
}

double Device::atomic_add_f64(double* addr, double value) noexcept {
  auto* bits = reinterpret_cast<std::uint64_t*>(addr);
  std::atomic_ref<std::uint64_t> ref(*bits);
  std::uint64_t old = ref.load(std::memory_order_relaxed);
  for (;;) {
    const double updated = std::bit_cast<double>(old) + value;
    if (ref.compare_exchange_weak(old, std::bit_cast<std::uint64_t>(updated),
                                  std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
      return std::bit_cast<double>(old);
    }
    cas_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace hpsum::cudasim
