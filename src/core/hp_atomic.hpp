// HpAtomic<N,K> — lock-free shared HP accumulator.
//
// The paper (§III.B.2) claims HP addition can be made atomic with nothing
// but compare-and-swap: each of the N limb additions is one atomic RMW, the
// carry between limbs is thread-local state. Intermediate states are torn
// across limbs, but because limb-wise addition with deferred carries is
// commutative and associative over Z/2^64N, the final value once all adders
// have finished is exactly the sequential sum.
//
// Status flags stay sticky across threads: every add() ORs the operand's
// flags (e.g. kInexact/kConvertOverflow picked up during double->HP
// conversion) into a shared atomic mask, raises kAddOverflow when the
// top-limb update departs the representable range (the same sign rule the
// sequential adder applies), and load() folds that mask into the returned
// value — so going through the concurrent accumulator never silently drops
// a condition the sequential accumulator would have reported.
//
// Two adder flavors are provided:
//   add()            — CAS loop, the primitive the paper requires (CUDA has
//                      only atomicCAS for 64-bit until fetch-add arrived);
//   add_fetch_add()  — native fetch_add, an ablation (bench/ablate_atomics).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/hp_fixed.hpp"
#include "trace/trace.hpp"
#include "util/annotations.hpp"

namespace hpsum {

/// Thread-safe HP accumulator with the same format as HpFixed<N,K>.
template <int N, int K>
class HpAtomic {
 public:
  using Value = HpFixed<N, K>;

  /// Zero value.
  HpAtomic() {
    for (auto& limb : limbs_) limb.store(0, std::memory_order_relaxed);
  }

  HpAtomic(const HpAtomic&) = delete;
  HpAtomic& operator=(const HpAtomic&) = delete;

  /// Atomically adds an HP value using only compare-and-swap.
  /// Safe to call concurrently from any number of threads. The operand's
  /// sticky flags join the accumulator's shared status. The carry loop and
  /// the top-limb sign rule are kernel::atomic_add; only the CAS-loop
  /// fetch-add primitive (and its retry accounting) lives here.
  void add(const Value& v) noexcept {
    or_shared_status(v.status());
    trace::count(trace::Counter::kAtomicCasAdds);
    or_shared_status(kernel::atomic_add(
        [this](int i, util::Limb x) noexcept {
          util::Limb old = limbs_[i].load(std::memory_order_relaxed);
          util::Limb desired = detail::wrap_add(old, x);
          while (!limbs_[i].compare_exchange_weak(
              old, desired, std::memory_order_relaxed,
              std::memory_order_relaxed)) {
            trace::count(trace::Counter::kAtomicCasRetries);
            desired = detail::wrap_add(old, x);
          }
          return old;
        },
        v.limbs().data(), N));
    // A carry out of limb 0 wraps the full 64N-bit ring exactly as the
    // sequential adder wraps; departures from the representable range are
    // reported by kernel::atomic_add's sign rule, so the concurrent and
    // sequential paths raise the same sticky kAddOverflow.
  }

  /// Atomically adds a double (converts thread-locally, then add(); any
  /// conversion flags ride along into the shared status).
  void add(double r) noexcept { add(Value(r)); }

  /// Ablation variant of add() using fetch_add instead of a CAS loop.
  void add_fetch_add(const Value& v) noexcept {
    or_shared_status(v.status());
    or_shared_status(kernel::atomic_add(
        [this](int i, util::Limb x) noexcept {
          return limbs_[i].fetch_add(x, std::memory_order_relaxed);
        },
        v.limbs().data(), N));
  }

  /// Snapshot of the current value, including the sticky status collected
  /// from every adder so far. Only exact once all concurrent adders have
  /// finished (e.g. after joining threads); mid-flight reads may observe a
  /// sum whose carries are still in adders' local state.
  [[nodiscard]] Value load() const noexcept {
    Value out;
    for (int i = 0; i < N; ++i) {
      out.limbs()[static_cast<std::size_t>(i)] =
          limbs_[i].load(std::memory_order_relaxed);
    }
    out.or_status(status());
    return out;
  }

  /// The shared sticky status on its own (no limb reads).
  [[nodiscard]] HpStatus status() const noexcept {
    return static_cast<HpStatus>(status_.load(std::memory_order_relaxed));
  }

  /// Resets to zero and clears the shared status. Must not race with adders.
  void clear() noexcept {
    for (auto& limb : limbs_) limb.store(0, std::memory_order_relaxed);
    status_.store(0, std::memory_order_relaxed);
  }

 private:
  void or_shared_status(HpStatus s) noexcept {
    if (s != HpStatus::kOk) {
      status_.fetch_or(static_cast<std::uint8_t>(s),
                       std::memory_order_relaxed);
    }
  }

  std::atomic<util::Limb> limbs_[N];
  std::atomic<std::uint8_t> status_{0};
};

}  // namespace hpsum
