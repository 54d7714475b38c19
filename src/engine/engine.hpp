// hpsum::engine — the streaming-accumulation runtime: sharded deposit
// sinks with epoch-based exact snapshots and checkpoint/restore.
//
// Every parallel consumer in this repo used to hand-roll the same shape:
// give each PE a private partial accumulator, run, then merge the partials
// in a fixed order. That pattern is correct but offline — nothing can
// observe the running total without first stopping every writer. The
// paper's order-invariance guarantee is exactly what makes a *live* exact
// total possible: HP addition is associative and commutative at the bit
// level, so shard partials merged at any epoch boundary, in any order,
// produce the same limbs and the same sticky status as the sequential
// reference. ShardSet<Acc> owns that pattern once:
//
//   - fixed thread-affine lanes: the lane list is built once at
//     construction and never changes; each depositor writes its own
//     cache-line-padded slot. No locks anywhere, no contention on the
//     deposit path.
//   - epoch-based snapshot(): depositors publish their partial behind a
//     per-shard seqlock (odd epoch = write in flight). A reader copies the
//     published words, re-checks the epoch, and retries torn shards — the
//     same tear-free discipline as trace::snapshot(), generalized from one
//     64-bit word to a whole limb image.
//   - drain() for the classic join-then-merge drivers
//     (backends::run_threads / run_openmp, rblas::sum_parallel): merge
//     every lane and reset the set for reuse. Code with one depositor and
//     no concurrent reader — a sequential reduce, the mpisim per-rank
//     local phase, the cudasim host fold — calls the accumulator directly
//     instead.
//   - checkpoint()/restore() of runtime-format (DynSum) sets over the
//     pinned docs/FORMAT.md canonical serialization, one frame per lane,
//     so a checkpoint taken on S lanes restores onto any lane count
//     (frames are redistributed round-robin; exactness makes the
//     regrouping bit-invisible).
//
// Memory-model notes (the part TSan cares about):
//   Writer (publish):  epoch.store(e+1, relaxed); fence(release);
//                      word stores (relaxed); epoch.store(e+2, release).
//   Reader (collect):  e1 = epoch.load(acquire); word loads (relaxed);
//                      fence(acquire); e2 = epoch.load(relaxed);
//                      accept iff e1 == e2 and e1 is even.
//   The release fence pairs with the reader's acquire fence through any
//   word the reader observed, so a reader that saw mid-write data cannot
//   also see a stale even epoch. All shared state is atomic; the working
//   accumulator itself is written only by the owning depositor thread (or
//   by drain()/restore() once writers are quiesced). The lane list is
//   immutable after construction, so the seqlock is the engine's only
//   synchronisation: readers never take a lock.
//
//   TSan builds express the same edges per word instead: GCC's TSan does
//   not model atomic_thread_fence (-Wtsan, promoted by -Werror), so the
//   fences become no-ops and the word traffic is strengthened to release
//   stores / acquire loads. That variant is independently correct — the
//   release word stores keep the odd-epoch store ahead of the image and
//   the acquire word loads keep the confirming epoch re-read behind it —
//   it just pays an ordered access per word, which the uninstrumented
//   build avoids.
//
// docs/ENGINE.md documents the lifecycle, protocol, and wire framing.
// backends::run_threads / run_openmp and rblas::sum_parallel run on this
// layer, and bench/e2e prices its live snapshot under deposit load.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hp_dyn.hpp"
#include "core/hp_kernel.hpp"
#include "core/hp_serialize.hpp"
#include "trace/trace.hpp"

// Detect a ThreadSanitizer build (GCC defines __SANITIZE_THREAD__; clang
// answers __has_feature(thread_sanitizer)).
#if defined(__SANITIZE_THREAD__)
#define HPSUM_ENGINE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HPSUM_ENGINE_TSAN 1
#endif
#endif
#ifndef HPSUM_ENGINE_TSAN
#define HPSUM_ENGINE_TSAN 0
#endif

namespace hpsum::engine {

// Seqlock ordering knobs — see the memory-model notes above. Word
// accesses are relaxed and the fences are real in normal builds; under
// TSan the ordering moves onto the words and the fences vanish.
#if HPSUM_ENGINE_TSAN
inline constexpr std::memory_order kWordStoreOrder =
    std::memory_order_release;
inline constexpr std::memory_order kWordLoadOrder = std::memory_order_acquire;
inline void publish_fence() noexcept {}
inline void observe_fence() noexcept {}
#else
inline constexpr std::memory_order kWordStoreOrder =
    std::memory_order_relaxed;
inline constexpr std::memory_order kWordLoadOrder = std::memory_order_relaxed;
inline void publish_fence() noexcept {
  std::atomic_thread_fence(std::memory_order_release);
}
inline void observe_fence() noexcept {
  std::atomic_thread_fence(std::memory_order_acquire);
}
#endif

/// Runtime-format HP accumulator satisfying the backends::accumulators
/// concept shape. The compile-time backends::HpSum<N,K> is the right lane
/// type when the format is known at build time; DynSum carries the format
/// chosen by hp_plan at runtime (exact_sum_cli, the mpisim local phase).
struct DynSum {
  HpDyn hp;

  explicit DynSum(HpConfig cfg) : hp(cfg) {}
  void accumulate(double x) noexcept { hp += x; }
  void accumulate(std::span<const double> xs) noexcept { hp.accumulate(xs); }
  /// Same-format merge. Every ShardSet slot and every snapshot/drain
  /// total start as copies of one prototype, so the two formats always
  /// match. A direct caller that mixes formats would read past the
  /// shorter limb array or add misaligned limbs, so a mismatch stops the
  /// program in every build.
  void merge(const DynSum& o) noexcept {
    if (o.hp.config() != hp.config()) [[unlikely]] {
      std::fputs("engine::DynSum::merge: formats differ\n", stderr);
      std::abort();
    }
    hp.or_status(o.hp.status());
    hp.or_status(hp_add(hp.limbs(), o.hp.limbs()));
  }
  [[nodiscard]] double result() const noexcept { return hp.to_double(); }
  [[nodiscard]] static std::string name() { return "HP(dyn)"; }
};

/// Fixed-width publication codec: how a shard's working accumulator is
/// staged into the seqlock-protected word array. The default covers every
/// trivially copyable accumulator (DoubleSum, HpSum, HallbergSum) by
/// treating the object representation as words. A codec must be
/// value-preserving: load(store(acc)) compares equal in limbs and status.
template <class Acc>
struct ShardCodec {
  static_assert(std::is_trivially_copyable_v<Acc>,
                "non-trivially-copyable accumulators need a ShardCodec "
                "specialization (see ShardCodec<DynSum>)");
  static_assert((sizeof(Acc) + 7) / 8 <=
                    static_cast<std::size_t>(kMaxLimbs) + 1,
                "ShardSet stages each image in kMaxLimbs + 1 words");

  [[nodiscard]] static std::size_t words(const Acc& /*proto*/) noexcept {
    return (sizeof(Acc) + 7) / 8;
  }
  static void store(const Acc& acc, std::uint64_t* w) noexcept {
    unsigned char raw[sizeof(Acc)];
    std::memcpy(raw, &acc, sizeof(Acc));
    std::uint64_t last = 0;
    const std::size_t full = sizeof(Acc) / 8;
    std::memcpy(w, raw, full * 8);
    if (sizeof(Acc) % 8 != 0) {
      std::memcpy(&last, raw + full * 8, sizeof(Acc) % 8);
      w[full] = last;
    }
  }
  static void load(Acc& out, const std::uint64_t* w) noexcept {
    unsigned char raw[sizeof(Acc)];
    const std::size_t full = sizeof(Acc) / 8;
    std::memcpy(raw, w, full * 8);
    if (sizeof(Acc) % 8 != 0) {
      std::memcpy(raw + full * 8, &w[full], sizeof(Acc) % 8);
    }
    std::memcpy(&out, raw, sizeof(Acc));
  }
};

/// DynSum holds an HpDyn (heap-backed limb vector), so its published image
/// is the limbs followed by one status word — at most kMaxLimbs + 1 words,
/// since the HpDyn constructor rejects n > kMaxLimbs. load() targets an
/// accumulator pre-shaped from the set's prototype.
template <>
struct ShardCodec<DynSum> {
  [[nodiscard]] static std::size_t words(const DynSum& proto) noexcept {
    return static_cast<std::size_t>(proto.hp.config().n) + 1;
  }
  static void store(const DynSum& acc, std::uint64_t* w) noexcept {
    const auto ls = acc.hp.limbs();
    for (std::size_t i = 0; i < ls.size(); ++i) w[i] = ls[i];
    w[ls.size()] = static_cast<std::uint64_t>(acc.hp.status());
  }
  static void load(DynSum& out, const std::uint64_t* w) noexcept {
    auto ls = out.hp.limbs();
    for (std::size_t i = 0; i < ls.size(); ++i) ls[i] = w[i];
    out.hp.clear_status();
    out.hp.or_status(static_cast<HpStatus>(w[ls.size()] & kHpStatusMask));
  }
};

/// Destructive-interference padding for the per-shard slots. Not
/// hardware_destructive_interference_size: that constant is ABI-fragile
/// across compilers and 64 is correct for every target this repo builds.
inline constexpr std::size_t kShardAlign = 64;

/// Engine checkpoint wire framing over canonical HP images ("HE" header +
/// length-prefixed docs/FORMAT.md frames; see docs/FORMAT.md §engine).
/// Exposed so tests can drive the framing and its malformed-input
/// rejection without a ShardSet.
[[nodiscard]] std::vector<std::byte> frame_checkpoint(
    const std::vector<HpDyn>& frames);
/// Inverse of frame_checkpoint. Throws std::invalid_argument on bad
/// magic/version, truncation, trailing bytes, or corrupt frames.
[[nodiscard]] std::vector<HpDyn> unframe_checkpoint(
    std::span<const std::byte> bytes);

/// A sharded deposit sink over any backends::accumulators-shaped Acc.
///
/// Construction builds `lanes` shards (the classic driver shape: lane t
/// belongs to PE t); the lane list never changes afterwards.
///
/// Thread contract:
///   - shard(i) deposits: exclusively the lane's owning thread.
///   - snapshot()/checkpoint(): any thread, any time, writers running.
///   - drain()/restore(): writers quiesced (joined or otherwise
///     happens-before ordered), exactly like trace::reset(). A reader
///     running alongside sees each lane before or after the call, lane
///     by lane, as it does with depositors running.
template <class Acc>
class ShardSet {
  using Codec = ShardCodec<Acc>;

  struct alignas(kShardAlign) Slot {
    explicit Slot(const Acc& proto, std::size_t nwords)
        : acc(proto), words(std::make_unique<std::atomic<std::uint64_t>[]>(
                          nwords)) {}
    /// Working accumulator — written only by the owning depositor thread,
    /// read directly only under the quiesced-writer contract.
    Acc acc;
    /// Seqlock epoch: even = published image consistent, odd = publish in
    /// flight. Monotone; one publish advances it by exactly 2.
    std::atomic<std::uint64_t> epoch{0};
    /// The published image (Codec words). Individually relaxed-atomic so
    /// concurrent readers are race-free; consistency comes from `epoch`.
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

 public:
  /// A depositor's view of one lane. Cheap to copy; valid as long as the
  /// owning ShardSet is alive.
  class Shard {
   public:
    /// Deposits one value and publishes. Per-call publication is what
    /// gives snapshot() deposit-boundary granularity.
    void deposit(double x) noexcept {
      slot_->acc.accumulate(x);
      publish();
    }
    /// Deposits a block and publishes once — the driver fast path (one
    /// epoch bump amortized over the whole slice).
    void deposit(std::span<const double> xs) noexcept {
      slot_->acc.accumulate(xs);
      publish();
    }
   private:
    friend class ShardSet;
    Shard(Slot* slot, std::size_t words) : slot_(slot), words_(words) {}

    void publish() noexcept { ShardSet::publish(*slot_, words_); }

    Slot* slot_;
    std::size_t words_;
  };

  /// Creates the set with `lanes` shards, each starting as a copy of
  /// `proto` (the zero value; DynSum protos carry the runtime format,
  /// e.g. `ShardSet<DynSum>(p, DynSum(cfg))`).
  explicit ShardSet(std::size_t lanes, Acc proto = Acc())
      : proto_(std::move(proto)), words_per_shard_(Codec::words(proto_)) {
    if (lanes == 0) {
      throw std::invalid_argument("engine: ShardSet needs >= 1 lane");
    }
    slots_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      slots_.push_back(std::make_unique<Slot>(proto_, words_per_shard_));
      publish(*slots_.back(), words_per_shard_);
    }
  }

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  /// Lane count, fixed at construction.
  [[nodiscard]] std::size_t lanes() const noexcept { return slots_.size(); }

  /// Depositor view of lane `i` — each lane must be driven by at most one
  /// thread at a time.
  [[nodiscard]] Shard shard(std::size_t i) {
    if (i >= slots_.size()) {
      throw std::out_of_range("engine: lane out of range");
    }
    return Shard(slots_[i].get(), words_per_shard_);
  }

  /// Bit-exact merged total while depositors keep running. Lanes merge in
  /// index order — for the join-then-merge drivers this reproduces the
  /// historical `for (t) total.merge(partials[t])` loop exactly, so limbs
  /// and status are bit-identical to the direct path.
  [[nodiscard]] Acc snapshot() const {
    Acc total = proto_;
    Acc tmp = proto_;
    std::uint64_t retries = 0;
    std::uint64_t buf[kMaxLimbs + 1] = {};  // every codec image fits
    for (const auto& slot : slots_) {
      collect(*slot, buf, retries);
      Codec::load(tmp, buf);
      total.merge(tmp);
    }
    trace::count(trace::Counter::kEngineSnapshots);
    trace::count(trace::Counter::kEngineSnapshotRetries, retries);
    return total;
  }

  /// Merged total + reset, for the classic join-then-merge drivers.
  /// Writers must be quiesced; reads the working accumulators directly
  /// (the join provides the happens-before edge), so the merged value is
  /// literally the partials the depositor threads produced.
  [[nodiscard]] Acc drain() {
    Acc total = proto_;
    for (const auto& slot : slots_) {
      total.merge(slot->acc);
      slot->acc = proto_;
      publish(*slot, words_per_shard_);
    }
    return total;
  }

  /// Serializes every lane as one canonical frame (docs/FORMAT.md §engine
  /// checkpoint). Safe while depositors run — lane images are collected
  /// through the seqlock.
  [[nodiscard]] std::vector<std::byte> checkpoint() const
    requires std::same_as<Acc, DynSum>
  {
    std::vector<HpDyn> frames;
    frames.reserve(slots_.size());
    DynSum tmp = proto_;
    std::uint64_t retries = 0;
    std::uint64_t buf[kMaxLimbs + 1] = {};  // every codec image fits
    for (const auto& slot : slots_) {
      collect(*slot, buf, retries);
      Codec::load(tmp, buf);
      frames.push_back(tmp.hp);
    }
    trace::count(trace::Counter::kEngineSnapshots);
    trace::count(trace::Counter::kEngineSnapshotRetries, retries);
    return frame_checkpoint(frames);
  }

  /// Merges a checkpoint into this set, redistributing frames across the
  /// lanes round-robin — a checkpoint taken on any lane count restores
  /// onto any other, and exactness makes the regrouping invisible in the
  /// final total. Writers must be quiesced; call on a freshly constructed
  /// (or drained) set for an exact resume. All or nothing: throws
  /// std::invalid_argument on malformed bytes or a frame whose format
  /// differs from the set's, before any frame is merged.
  void restore(std::span<const std::byte> bytes)
    requires std::same_as<Acc, DynSum>
  {
    const std::vector<HpDyn> frames = unframe_checkpoint(bytes);
    const HpConfig cfg = proto_.hp.config();
    for (const HpDyn& f : frames) {
      if (f.config() != cfg) {
        throw std::invalid_argument(
            "engine: checkpoint frame format " + std::to_string(f.config().n) +
            "/" + std::to_string(f.config().k) +
            " does not match shard format " + std::to_string(cfg.n) + "/" +
            std::to_string(cfg.k));
      }
    }
    for (std::size_t j = 0; j < frames.size(); ++j) {
      Slot& slot = *slots_[j % slots_.size()];
      slot.acc.hp += frames[j];
      publish(slot, words_per_shard_);
    }
  }

 private:
  /// Seqlock collect of one slot's published words into `buf`.
  void collect(const Slot& slot, std::uint64_t* buf,
               std::uint64_t& retries) const noexcept {
    for (std::uint64_t spin = 0;; ++spin) {
      const std::uint64_t e1 = slot.epoch.load(std::memory_order_acquire);
      if ((e1 & 1) == 0) {
        for (std::size_t i = 0; i < words_per_shard_; ++i) {
          // hplint: allow(memory-order) — kWordLoadOrder IS the explicit
          // order (relaxed, or acquire under TSan)
          buf[i] = slot.words[i].load(kWordLoadOrder);
        }
        observe_fence();
        if (slot.epoch.load(std::memory_order_relaxed) == e1) return;
      }
      ++retries;
      if (spin >= 64) std::this_thread::yield();
    }
  }

  /// Rewrites a slot's published image from its working accumulator: the
  /// seqlock writer. Runs on the slot's depositor thread, or with writers
  /// quiesced (construction, drain, restore).
  static void publish(Slot& slot, std::size_t nwords) noexcept {
    const std::uint64_t e = slot.epoch.load(std::memory_order_relaxed);
    slot.epoch.store(e + 1, std::memory_order_relaxed);
    publish_fence();
    // Every codec image fits kMaxLimbs + 1 words (see ShardCodec).
    std::uint64_t buf[kMaxLimbs + 1];
    Codec::store(slot.acc, buf);
    for (std::size_t i = 0; i < nwords; ++i) {
      // hplint: allow(memory-order) — kWordStoreOrder IS the explicit
      // order (relaxed, or release under TSan; see the knobs above)
      slot.words[i].store(buf[i], kWordStoreOrder);
    }
    slot.epoch.store(e + 2, std::memory_order_release);
  }

  Acc proto_;
  std::size_t words_per_shard_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// The per-rank local phase of an mpisim reduction: reduce_hp(xs, cfg).
/// Nothing runs concurrently with it, so it calls the accumulator directly
/// rather than through a ShardSet.
[[nodiscard]] HpDyn local_reduce(std::span<const double> xs, HpConfig cfg);

}  // namespace hpsum::engine
