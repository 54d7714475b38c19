// Packaged device reductions — the paper's Fig 7 kernel as a library call.
//
// All launched threads stride the device array and accumulate each element
// into (thread id % partials_count) of a set of shared partial sums using
// only CAS atomics; the host then folds the partials. Exposed so tests,
// benches and applications share one implementation of the pattern.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "core/hp_fixed.hpp"
#include "cudasim/cudasim.hpp"
#include "cudasim/hp_kernels.hpp"

namespace hpsum::cudasim {

/// HP global sum of `data[0..n)` (device memory) using `grid` x `block`
/// virtual threads and `partials_count` shared accumulators. Returns the
/// exact HP total; launch statistics (modeled time, CAS retries) go to
/// `stats` when non-null.
template <int N, int K>
[[nodiscard]] HpFixed<N, K> reduce_hp_device(Device& dev, const double* data,
                                             std::size_t n, int grid,
                                             int block,
                                             int partials_count = 256,
                                             LaunchStats* stats = nullptr) {
  auto* partials = static_cast<std::uint64_t*>(
      dev.dmalloc(static_cast<std::size_t>(partials_count) * N *
                  sizeof(std::uint64_t)));
  const int total_threads = grid * block;
  // Conversion happens in thread-local registers, so its flags never reach
  // the device partials; gather them in a launch-wide sticky mask instead
  // of dropping them (the sequential accumulator would have kept them).
  std::atomic<std::uint8_t> launch_status{0};
  const LaunchStats ls =
      dev.launch(grid, block, [&](const ThreadCtx& ctx) {
        const int tid = ctx.global_id();
        std::uint64_t* slot = &partials[(tid % partials_count) * N];
        HpStatus local_status = HpStatus::kOk;
        for (std::size_t i = static_cast<std::size_t>(tid); i < n;
             i += static_cast<std::size_t>(total_threads)) {
          const HpFixed<N, K> v(data[i]);
          local_status |= v.status();
          local_status |= device_hp_atomic_add(dev, slot, v);
        }
        if (local_status != HpStatus::kOk) {
          launch_status.fetch_or(static_cast<std::uint8_t>(local_status),
                                 std::memory_order_relaxed);
        }
      });
  if (stats != nullptr) *stats = ls;

  // Host fold: add the device partials in slot order.
  HpFixed<N, K> total;
  for (int p = 0; p < partials_count; ++p) {
    HpFixed<N, K> part;
    std::memcpy(part.limbs().data(), &partials[p * N],
                N * sizeof(std::uint64_t));
    total += part;
  }
  total.or_status(static_cast<HpStatus>(
      launch_status.load(std::memory_order_relaxed)));
  dev.dfree(partials);
  return total;
}

/// Shared-memory tree reduction — the classic CUDA optimization the paper's
/// all-atomic kernel forgoes. Phase 0: each thread reduces its strided
/// slice into its own shared-memory HP slot (no atomics: slots are
/// private). Phases 1..log2(block): stride-halving combines within the
/// block (no atomics: the phase barrier orders them). Final phase: thread 0
/// adds the block total to the single global accumulator — N atomic RMWs
/// per BLOCK instead of per element. `block` must be a power of two.
template <int N, int K>
[[nodiscard]] HpFixed<N, K> reduce_hp_device_tree(Device& dev,
                                                  const double* data,
                                                  std::size_t n, int grid,
                                                  int block,
                                                  LaunchStats* stats = nullptr) {
  if (block < 1 || (block & (block - 1)) != 0) {
    throw std::invalid_argument("reduce_hp_device_tree: block must be 2^m");
  }
  int log2_block = 0;
  while ((1 << log2_block) < block) ++log2_block;
  const int phases = 1 + log2_block + 1;

  auto* global = static_cast<std::uint64_t*>(
      dev.dmalloc(static_cast<std::size_t>(N) * sizeof(std::uint64_t)));
  const int total_threads = grid * block;
  const std::size_t shared_bytes =
      static_cast<std::size_t>(block) * N * sizeof(std::uint64_t);

  // Shared-memory slots and the global accumulator carry limbs only;
  // conversion and combine flags ride in a launch-wide sticky mask.
  std::atomic<std::uint8_t> launch_status{0};
  const auto raise = [&launch_status](HpStatus st) {
    if (st != HpStatus::kOk) {
      launch_status.fetch_or(static_cast<std::uint8_t>(st),
                             std::memory_order_relaxed);
    }
  };
  const LaunchStats ls = dev.launch_phased(
      grid, block, phases, shared_bytes,
      [&](const ThreadCtx& ctx, std::byte* shared, int phase) {
        auto* slots = reinterpret_cast<std::uint64_t*>(shared);
        const int t = ctx.thread_idx;
        if (phase == 0) {
          HpFixed<N, K> local;
          for (std::size_t i = static_cast<std::size_t>(ctx.global_id());
               i < n; i += static_cast<std::size_t>(total_threads)) {
            // Per-thread deposit rides the scatter-add fast path: each
            // summand touches only its 2-3 limbs, which is what keeps the
            // grid-stride loop's register pressure at O(1) limbs instead of
            // a full N-limb converted temporary per element.
            local += data[i];
          }
          raise(local.status());
          std::memcpy(&slots[t * N], local.limbs().data(),
                      N * sizeof(std::uint64_t));
        } else if (phase <= log2_block) {
          const int stride = block >> phase;
          if (t < stride) {
            raise(kernel::add(&slots[t * N], &slots[(t + stride) * N], N));
          }
        } else if (t == 0) {
          HpFixed<N, K> block_total;
          std::memcpy(block_total.limbs().data(), &slots[0],
                      N * sizeof(std::uint64_t));
          raise(device_hp_atomic_add(dev, global, block_total));
        }
      });
  if (stats != nullptr) *stats = ls;

  HpFixed<N, K> total;
  std::memcpy(total.limbs().data(), global, N * sizeof(std::uint64_t));
  total.or_status(static_cast<HpStatus>(
      launch_status.load(std::memory_order_relaxed)));
  dev.dfree(global);
  return total;
}

/// Double-precision counterpart (CAS-emulated atomicAdd, as on the K20m):
/// the order-sensitive baseline of Fig 7.
[[nodiscard]] inline double reduce_f64_device(Device& dev, const double* data,
                                              std::size_t n, int grid,
                                              int block,
                                              int partials_count = 256,
                                              LaunchStats* stats = nullptr) {
  auto* partials = static_cast<double*>(
      dev.dmalloc(static_cast<std::size_t>(partials_count) * sizeof(double)));
  const int total_threads = grid * block;
  const LaunchStats ls =
      dev.launch(grid, block, [&](const ThreadCtx& ctx) {
        const int tid = ctx.global_id();
        double* slot = &partials[tid % partials_count];
        for (std::size_t i = static_cast<std::size_t>(tid); i < n;
             i += static_cast<std::size_t>(total_threads)) {
          dev.atomic_add_f64(slot, data[i]);
        }
      });
  if (stats != nullptr) *stats = ls;
  double naive = 0;
  // hplint: allow(fp-accumulate) — Fig 7's order-sensitive double baseline
  for (int p = 0; p < partials_count; ++p) naive += partials[p];
  dev.dfree(partials);
  return naive;
}

}  // namespace hpsum::cudasim
