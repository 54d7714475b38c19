#include "mpisim/mpisim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "mpisim/fiber.hpp"
#include "mpisim/wire.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"

namespace hpsum::mpisim {

namespace {
namespace flight = trace::flight;

/// kAuto runs one jthread per rank up to here, fibers above (docs/MPISIM.md).
constexpr int kAutoThreadLimit = 128;

/// memcpy with the zero-length case allowed: empty messages and
/// zero-count collectives hand us null/empty vector data(), which the
/// raw memcpy contract (nonnull attributes) forbids even for n == 0.
void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}

/// Payload bytes held inside a message or staging buffer: one sparse
/// HP(6,3) element at its worst case — the paper's format, and the
/// allreduce step's message. Its 48-byte raw image fits too.
constexpr std::size_t kInlinePayload = wire::encoded_bound(6, 1);

/// A byte buffer that holds up to kInlinePayload bytes inline and larger
/// contents in a heap block. The heap block is kept across resizes, so a
/// reused buffer (a mailbox slot) stops allocating once it has seen its
/// largest payload; a stack-local one never allocates for small payloads.
class InlineBytes {
 public:
  InlineBytes() = default;
  explicit InlineBytes(std::size_t n) { resize(n); }

  /// Makes room for `n` bytes (contents unspecified) and returns them.
  std::byte* resize(std::size_t n) {
    on_heap_ = n > kInlinePayload;
    if (on_heap_ && heap_.size() < n) heap_.resize(n);
    size_ = n;
    return data();
  }
  /// Trims the size to `n` <= size() without moving the contents.
  void shrink(std::size_t n) noexcept {
    assert(n <= size_);
    size_ = n;
  }

  [[nodiscard]] std::byte* data() noexcept {
    return on_heap_ ? heap_.data() : inline_;
  }
  [[nodiscard]] const std::byte* data() const noexcept {
    return on_heap_ ? heap_.data() : inline_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
  bool on_heap_ = false;
  std::vector<std::byte> heap_;
  alignas(std::uint64_t) std::byte inline_[kInlinePayload] = {};
};

/// Per-rank execution context for the multiplexed engine: which fiber runs
/// the rank and why it is blocked. Written only by the rank's own worker
/// thread (the fiber runs on it), so the block fields need no locking; the
/// readiness predicates re-derive state from the runtime's locked
/// structures.
struct RankCtx {
  enum class Block { kNone, kRecv, kBarrier };
  int rank = -1;
  Block block = Block::kNone;
  int src = -1;
  int tag = -1;
  std::uint64_t barrier_gen = 0;
#if HPSUM_MPISIM_HAS_FIBERS
  std::unique_ptr<detail::Fiber> fiber;
#endif
  bool done = false;
};

/// Set by the worker scheduler around each fiber resume; null on plain
/// rank threads — how the blocking primitives know whether to park the OS
/// thread or yield the fiber.
thread_local RankCtx* tl_ctx = nullptr;

void fiber_yield() {
#if HPSUM_MPISIM_HAS_FIBERS
  detail::Fiber::yield();
#else
  assert(false && "fiber_yield without fiber support");
#endif
}

}  // namespace

/// Shared state for one run(): mailboxes (the "network"), the barrier, the
/// poison latch, and run statistics.
class Runtime {
 public:
  struct Message {
    int source = 0;
    int tag = 0;
    std::uint64_t seq = 0;  ///< post order in the mailbox (FIFO per tag)
    InlineBytes data;
  };

  /// Worker-pool wake channel for the multiplexed engine: a worker sleeps
  /// until its epoch moves (message for one of its ranks, barrier release,
  /// or poison).
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t epoch = 0;
  };

  explicit Runtime(int nranks)
      : nranks_(nranks), mailboxes_(static_cast<std::size_t>(nranks)) {
    // 2m + 2 slots, m = floor(log2 p): the most messages one collective
    // of the log-depth topologies can leave pending for a rank (a send
    // from each partner in each phase, plus the pairwise fold in and
    // out). Only a linear root outgrows it, in its first collective.
    const int m = std::bit_width(static_cast<unsigned>(nranks)) - 1;
    for (Mailbox& box : mailboxes_) {
      box.slots.reserve(2 * static_cast<std::size_t>(m) + 2);
    }
  }

  [[nodiscard]] int size() const noexcept { return nranks_; }

  void init_workers(int count) {
    workers_ = std::vector<Worker>(static_cast<std::size_t>(count));
  }
  [[nodiscard]] Worker& worker(int w) {
    return workers_[static_cast<std::size_t>(w)];
  }

  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Throws RankAborted if a peer rank has failed — called on entry to
  /// every blocking primitive so no rank can hang on a dead peer.
  void abort_check() const {
    if (poisoned()) throw RankAborted();
  }

  /// Records the first failure and wakes every blocked rank: mailbox CVs,
  /// the barrier CV, and all multiplexed workers. Blocked recv/barrier
  /// calls observe the flag and throw RankAborted.
  void poison(std::exception_ptr err) {
    {
      const std::lock_guard<std::mutex> lock(err_mu_);
      if (!first_error_) first_error_ = std::move(err);
    }
    poisoned_.store(true, std::memory_order_release);
    // Lock-then-notify: taking each mutex guarantees any rank that checked
    // the flag before we set it has already entered its wait.
    for (Mailbox& box : mailboxes_) {
      { const std::lock_guard<std::mutex> lock(box.mu); }
      box.cv.notify_all();
    }
    { const std::lock_guard<std::mutex> lock(bar_mu_); }
    bar_cv_.notify_all();
    wake_all_workers();
  }

  [[nodiscard]] std::exception_ptr first_error() {
    const std::lock_guard<std::mutex> lock(err_mu_);
    return first_error_;
  }

  /// Posts a message from `source` into `dest`'s mailbox; `fill` writes
  /// its payload into the mailbox slot's InlineBytes.
  template <class Fill>
  void post(int dest, int source, int tag, Fill&& fill) {
    check_rank(dest);
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    {
      const std::lock_guard<std::mutex> lock(box.mu);
      if (box.live == box.slots.size()) box.slots.emplace_back();
      Message& msg = box.slots[box.live];
      msg.source = source;
      msg.tag = tag;
      msg.seq = box.next_seq++;
      fill(msg.data);
      ++box.live;
    }
    if (workers_.empty()) {
      box.cv.notify_all();
      return;
    }
    // A fiber posting to a rank of its own worker needs no wake: the
    // worker rescans all its ranks after any pass that resumed a fiber.
    const int nworkers = static_cast<int>(workers_.size());
    const RankCtx* ctx = tl_ctx;
    if (ctx == nullptr || ctx->rank % nworkers != dest % nworkers) {
      wake_worker(dest % nworkers);
    }
  }

  /// Blocks until a message from (source, tag) is available for `dest`,
  /// hands its payload to `consume` inside the mailbox, then retires it
  /// (also when `consume` throws). Throws RankAborted once the runtime is
  /// poisoned (instead of waiting for a message that will never come).
  template <class Consume>
  void take(int dest, int source, int tag, Consume&& consume) {
    check_rank(dest);
    check_rank(source);
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    RankCtx* ctx = tl_ctx;
    if (ctx == nullptr) {
      std::unique_lock<std::mutex> lock(box.mu);
      for (;;) {
        if (poisoned()) throw RankAborted();
        const std::size_t i = match(box, source, tag);
        if (i < box.live) return consume_slot(box, i, consume);
        box.cv.wait(lock);
      }
    }
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(box.mu);
        if (poisoned()) throw RankAborted();
        const std::size_t i = match(box, source, tag);
        if (i < box.live) {
          ctx->block = RankCtx::Block::kNone;
          return consume_slot(box, i, consume);
        }
        // Register the wait reason while holding the mailbox lock: a post
        // landing after this scan bumps our worker's epoch, so the yield
        // below cannot miss it.
        ctx->block = RankCtx::Block::kRecv;
        ctx->src = source;
        ctx->tag = tag;
      }
      fiber_yield();
    }
  }

  /// Generation-counter barrier (std::barrier cannot be interrupted, and
  /// the abort protocol needs to wake waiters on poison).
  void barrier_wait() {
    RankCtx* ctx = tl_ctx;
    std::unique_lock<std::mutex> lock(bar_mu_);
    if (poisoned()) throw RankAborted();
    const std::uint64_t my_gen = bar_gen_.load(std::memory_order_relaxed);
    if (++bar_arrived_ == nranks_) {
      bar_arrived_ = 0;
      bar_gen_.store(my_gen + 1, std::memory_order_release);
      lock.unlock();
      bar_cv_.notify_all();
      wake_all_workers();
      return;
    }
    if (ctx == nullptr) {
      bar_cv_.wait(lock, [&] {
        return poisoned() ||
               bar_gen_.load(std::memory_order_relaxed) != my_gen;
      });
      if (bar_gen_.load(std::memory_order_relaxed) == my_gen) {
        throw RankAborted();  // woken by poison, not release
      }
      return;
    }
    ctx->block = RankCtx::Block::kBarrier;
    ctx->barrier_gen = my_gen;
    lock.unlock();
    while (bar_gen_.load(std::memory_order_acquire) == my_gen) {
      if (poisoned()) {
        ctx->block = RankCtx::Block::kNone;
        throw RankAborted();
      }
      fiber_yield();
    }
    ctx->block = RankCtx::Block::kNone;
  }

  /// Multiplexed-engine readiness: may this rank's fiber make progress?
  [[nodiscard]] bool ready(const RankCtx& c) {
    if (poisoned()) return true;
    switch (c.block) {
      case RankCtx::Block::kNone:
        return true;
      case RankCtx::Block::kBarrier:
        return bar_gen_.load(std::memory_order_acquire) != c.barrier_gen;
      case RankCtx::Block::kRecv: {
        Mailbox& box = mailboxes_[static_cast<std::size_t>(c.rank)];
        const std::lock_guard<std::mutex> lock(box.mu);
        return match(box, c.src, c.tag) < box.live;
      }
    }
    return true;
  }

  void note_message(std::size_t bytes) {
    stat_messages_.fetch_add(1, std::memory_order_relaxed);
    stat_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_wire(std::size_t raw_bytes, std::size_t encoded_bytes) {
    stat_wire_raw_.fetch_add(raw_bytes, std::memory_order_relaxed);
    stat_wire_encoded_.fetch_add(encoded_bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] RunStats stats_snapshot() const {
    RunStats s;
    s.messages = stat_messages_.load(std::memory_order_relaxed);
    s.bytes_sent = stat_bytes_.load(std::memory_order_relaxed);
    s.wire_raw_bytes = stat_wire_raw_.load(std::memory_order_relaxed);
    s.wire_encoded_bytes = stat_wire_encoded_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Slots [0, live) hold pending messages in no particular order (seq
  /// keeps each (source, tag) stream FIFO); the slots above are retired
  /// ones, kept with their payload buffers for the next post. The vector
  /// only grows — to the most messages ever pending at once — so
  /// steady-state post and take allocate nothing.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Message> slots;
    std::size_t live = 0;
    std::uint64_t next_seq = 0;
  };

  /// Index of the oldest pending message from (source, tag); box.live if
  /// there is none. Caller holds box.mu.
  static std::size_t match(const Mailbox& box, int source, int tag) {
    std::size_t hit = box.live;
    for (std::size_t i = 0; i < box.live; ++i) {
      const Message& m = box.slots[i];
      if (m.source == source && m.tag == tag &&
          (hit == box.live || m.seq < box.slots[hit].seq)) {
        hit = i;
      }
    }
    return hit;
  }

  /// Runs `consume` on pending slot i, then retires the slot by swapping
  /// it just past the live range. Caller holds box.mu.
  template <class Consume>
  static void consume_slot(Mailbox& box, std::size_t i, Consume& consume) {
    struct Retire {
      Mailbox& box;
      std::size_t i;
      ~Retire() {
        const std::size_t last = --box.live;
        if (i != last) std::swap(box.slots[i], box.slots[last]);
      }
    } retire{box, i};
    consume(std::as_const(box.slots[i].data));
  }

  void wake_worker(int w) {
    Worker& wk = workers_[static_cast<std::size_t>(w)];
    {
      const std::lock_guard<std::mutex> lock(wk.mu);
      ++wk.epoch;
    }
    wk.cv.notify_all();
  }

  void wake_all_workers() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      wake_worker(static_cast<int>(w));
    }
  }

  void check_rank(int r) const {
    if (r < 0 || r >= nranks_) {
      throw std::out_of_range("mpisim: rank out of range");
    }
  }

  int nranks_;
  std::vector<Mailbox> mailboxes_;
  std::vector<Worker> workers_;  ///< empty in threaded mode

  std::mutex bar_mu_;
  std::condition_variable bar_cv_;
  int bar_arrived_ = 0;
  std::atomic<std::uint64_t> bar_gen_{0};

  std::atomic<bool> poisoned_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;

  std::atomic<std::uint64_t> stat_messages_{0};
  std::atomic<std::uint64_t> stat_bytes_{0};
  std::atomic<std::uint64_t> stat_wire_raw_{0};
  std::atomic<std::uint64_t> stat_wire_encoded_{0};
};

int Comm::size() const noexcept { return rt_->size(); }

void Comm::send(int dest, int tag, const void* buf, std::size_t bytes) {
  rt_->abort_check();
  rt_->note_message(bytes);
  flight::instant(
      flight::EventId::kMpiSend,
      flight::pack_pair(static_cast<std::uint64_t>(rank_),
                        static_cast<std::uint64_t>(dest)),
      flight::pack_pair(flight::current_reduction_id(), bytes));
  rt_->post(dest, rank_, tag, [&](InlineBytes& out) {
    copy_bytes(out.resize(bytes), buf, bytes);
  });
}

std::size_t Comm::send_encoded(int dest, int tag, const WireCodec& codec,
                               const std::byte* raw, std::size_t count,
                               std::uint8_t status) {
  rt_->abort_check();
  std::size_t bytes = 0;
  rt_->post(dest, rank_, tag, [&](InlineBytes& out) {
    bytes = codec.encode(raw, count, status, out.resize(codec.bound(count)));
    out.shrink(bytes);
  });
  rt_->note_message(bytes);
  flight::instant(
      flight::EventId::kMpiSend,
      flight::pack_pair(static_cast<std::uint64_t>(rank_),
                        static_cast<std::uint64_t>(dest)),
      flight::pack_pair(flight::current_reduction_id(), bytes));
  return bytes;
}

void Comm::recv(int source, int tag, void* buf, std::size_t bytes) {
  rt_->take(rank_, source, tag, [&](const InlineBytes& msg) {
    if (msg.size() != bytes) {
      throw std::logic_error("mpisim: recv size mismatch (expected " +
                             std::to_string(bytes) + ", got " +
                             std::to_string(msg.size()) + ")");
    }
    copy_bytes(buf, msg.data(), bytes);
  });
  flight::instant(
      flight::EventId::kMpiRecv,
      flight::pack_pair(static_cast<std::uint64_t>(rank_),
                        static_cast<std::uint64_t>(source)),
      flight::pack_pair(flight::current_reduction_id(), bytes));
}

std::uint8_t Comm::recv_decoded(int source, int tag, const WireCodec& codec,
                                std::byte* raw, std::size_t count) {
  std::uint8_t status = 0;
  std::size_t bytes = 0;
  rt_->take(rank_, source, tag, [&](const InlineBytes& msg) {
    bytes = msg.size();
    status = codec.decode(msg.data(), bytes, raw, count);
  });
  flight::instant(
      flight::EventId::kMpiRecv,
      flight::pack_pair(static_cast<std::uint64_t>(rank_),
                        static_cast<std::uint64_t>(source)),
      flight::pack_pair(flight::current_reduction_id(), bytes));
  return status;
}

void Comm::barrier() { rt_->barrier_wait(); }

// ---------------------------------------------------------------------------
// Collectives: four topologies over the same codec-aware transport;
// docs/MPISIM.md derives the schedules and the FIFO-tag argument that lets
// a whole collective reuse a single tag.

struct detail::Coll {
  /// Largest power of two q = 2^m that fits in p, and the r = p - q excess
  /// ranks that fold pairwise before/after the power-of-two phases.
  struct Pow2 {
    int q = 1;
    int m = 0;
    int r = 0;
  };

  static Pow2 pow2_split(int p) {
    Pow2 s;
    while (s.q * 2 <= p) {
      s.q *= 2;
      ++s.m;
    }
    s.r = p - s.q;
    return s;
  }

  struct Ctx {
    Comm& c;
    int me;  ///< my rank
    int p;   ///< number of ranks
    int tag;
    const Datatype& dt;
    const Op& op;
    std::size_t count;
    bool sparse;
    InlineBytes scratch;  ///< recv_combine staging
  };

  /// Rank of virtual rank v in the power-of-two phase.
  static int vreal(const Pow2& s, int v) { return v < s.r ? 2 * v : v + s.r; }

  static void note_wire(Ctx& x, std::size_t raw_bytes,
                        std::size_t encoded_bytes) {
    trace::count(trace::Counter::kMpisimWireRawBytes, raw_bytes);
    trace::count(trace::Counter::kMpisimWireEncodedBytes, encoded_bytes);
    x.c.rt_->note_wire(raw_bytes, encoded_bytes);
  }

  /// Ships elements [lo, hi) of `base`. Sparse mode encodes them together
  /// with the sender's current status mask — in-band status gossip.
  static void send_range(Ctx& x, int to, const std::byte* base,
                         std::size_t lo, std::size_t hi) {
    const std::size_t raw_bytes = (hi - lo) * x.dt.size;
    const std::byte* p = base + lo * x.dt.size;
    if (!x.sparse) {
      note_wire(x, raw_bytes, raw_bytes);
      x.c.send(to, x.tag, p, raw_bytes);
      return;
    }
    const std::size_t encoded_bytes = x.c.send_encoded(
        to, x.tag, *x.op.codec, p, hi - lo, x.op.observed_status());
    note_wire(x, raw_bytes, encoded_bytes);
  }

  /// Receives elements [lo, hi) into `base` (no combine). Sparse mode ORs
  /// the message's status mask into this rank's Op mask.
  static void recv_range(Ctx& x, int from, std::byte* base, std::size_t lo,
                         std::size_t hi) {
    if (!x.sparse) {
      x.c.recv(from, x.tag, base + lo * x.dt.size, (hi - lo) * x.dt.size);
      return;
    }
    const std::uint8_t st = x.c.recv_decoded(
        from, x.tag, *x.op.codec, base + lo * x.dt.size, hi - lo);
    if (st != 0) {
      x.op.sticky_status->fetch_or(st, std::memory_order_relaxed);
    }
  }

  /// Receives elements [lo, hi) and combines them into `acc` in ascending
  /// element order (the deterministic per-rank op order).
  static void recv_combine(Ctx& x, int from, std::byte* acc, std::size_t lo,
                           std::size_t hi) {
    std::byte* staged = x.scratch.resize(x.count * x.dt.size);
    recv_range(x, from, staged, lo, hi);
    for (std::size_t e = lo; e < hi; ++e) {
      x.op.fn(acc + e * x.dt.size, staged + e * x.dt.size);
    }
  }

  /// Start-of-collective bookkeeping shared by reduce and allreduce.
  static void begin(const Op& op) {
    if (op.codec && !op.sticky_status) {
      throw std::invalid_argument(
          "mpisim: an Op with a wire codec requires sticky_status (the "
          "codec carries the status mask in-band)");
    }
    op.reset_status();
    if (op.sticky_status && op.seed_status != 0) {
      op.sticky_status->fetch_or(op.seed_status, std::memory_order_relaxed);
    }
  }

  /// Pairwise pre-fold for non-power-of-two collectives: the first 2r
  /// ranks fold odd into even, leaving q = 2^m virtual participants.
  /// Returns this rank's virtual rank, or -1 for folded-out (odd) ranks.
  static int fold_in(Ctx& x, std::byte* acc, const Pow2& s) {
    if (x.me >= 2 * s.r) return x.me - s.r;
    if (x.me % 2 == 0) {
      recv_combine(x, x.me + 1, acc, 0, x.count);
      return x.me / 2;
    }
    send_range(x, x.me - 1, acc, 0, x.count);
    return -1;
  }

  /// Post-distribute the full result back to folded-out ranks.
  static void fold_out(Ctx& x, std::byte* acc, const Pow2& s) {
    if (x.me >= 2 * s.r) return;
    if (x.me % 2 == 0) {
      send_range(x, x.me + 1, acc, 0, x.count);
    } else {
      recv_range(x, x.me - 1, acc, 0, x.count);
    }
  }

  /// Recursive-doubling butterfly: log2(q) pairwise full-buffer exchanges;
  /// every participant ends with the complete reduction (and, in sparse
  /// mode, the OR of every participant's status mask — hypercube gossip).
  static void butterfly(Ctx& x, std::byte* acc) {
    const Pow2 s = pow2_split(x.p);
    const int vr = fold_in(x, acc, s);
    if (vr >= 0) {
      for (int mask = 1; mask < s.q; mask <<= 1) {
        const int partner = vreal(s, vr ^ mask);
        send_range(x, partner, acc, 0, x.count);
        recv_combine(x, partner, acc, 0, x.count);
      }
    }
    fold_out(x, acc, s);
  }

  /// Element range owned by virtual rank v after `level` halvings: each
  /// round splits [lo, hi) at lo + ceil(len/2), low half to the 0-bit
  /// side. Ranges may be empty when count < q — the (status-carrying)
  /// empty messages still flow, keeping the schedule and gossip uniform.
  static std::pair<std::size_t, std::size_t> vrange(std::size_t count, int m,
                                                    int v, int level) {
    std::size_t lo = 0;
    std::size_t hi = count;
    for (int i = 0; i < level; ++i) {
      const std::size_t mid = lo + (hi - lo + 1) / 2;
      if (((v >> (m - 1 - i)) & 1) != 0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return {lo, hi};
  }

  /// Recursive-halving reduce-scatter: after round i, each virtual rank
  /// holds the combined elements of vrange(vr, i+1). Partner order is
  /// top bit first (q/2, q/4, ..., 1).
  static void reduce_scatter(Ctx& x, std::byte* acc, const Pow2& s, int vr) {
    for (int i = 0; i < s.m; ++i) {
      const int pvr = vr ^ (s.q >> (i + 1));
      const int partner = vreal(s, pvr);
      const auto [plo, phi] = vrange(x.count, s.m, pvr, i + 1);
      const auto [mlo, mhi] = vrange(x.count, s.m, vr, i + 1);
      send_range(x, partner, acc, plo, phi);
      recv_combine(x, partner, acc, mlo, mhi);
    }
  }

  /// All-gather by recursive doubling of the owned range (the reverse
  /// partner order of reduce_scatter; FIFO per (source, tag) keeps the
  /// back-to-back same-partner messages correctly paired).
  static void gather_ranges_to_all(Ctx& x, std::byte* acc, const Pow2& s,
                                   int vr) {
    for (int i = s.m - 1; i >= 0; --i) {
      const int pvr = vr ^ (s.q >> (i + 1));
      const int partner = vreal(s, pvr);
      const auto [mlo, mhi] = vrange(x.count, s.m, vr, i + 1);
      const auto [plo, phi] = vrange(x.count, s.m, pvr, i + 1);
      send_range(x, partner, acc, mlo, mhi);
      recv_range(x, partner, acc, plo, phi);
    }
  }

  /// Codec-aware broadcast of a finished result (used by the reduce+bcast
  /// allreduce shapes): in sparse mode the root's message also carries its
  /// final — global — status mask, so every rank ends with full status.
  static void bcast_result(Ctx& x, std::byte* buf, int root) {
    x.tag = x.c.next_collective_tag();
    const std::size_t raw_bytes = x.count * x.dt.size;
    if (x.me != root) {
      recv_range(x, root, buf, 0, x.count);
      return;
    }
    if (!x.sparse) {
      for (int g = 0; g < x.p; ++g) {
        if (g == root) continue;
        note_wire(x, raw_bytes, raw_bytes);
        x.c.send(g, x.tag, buf, raw_bytes);
      }
      return;
    }
    // Encode once, then post a copy to every rank.
    InlineBytes msg(x.op.codec->bound(x.count));
    msg.shrink(x.op.codec->encode(buf, x.count, x.op.observed_status(),
                                  msg.data()));
    for (int g = 0; g < x.p; ++g) {
      if (g == root) continue;
      note_wire(x, raw_bytes, msg.size());
      x.c.send(g, x.tag, msg.data(), msg.size());
    }
  }

  static void reduce_core(Ctx& x, const std::byte* send_buf,
                          std::byte* recv_buf, int root, ReduceAlgo algo) {
    const std::size_t bytes = x.count * x.dt.size;
    switch (algo) {
      case ReduceAlgo::kLinear: {
        if (x.me == root) {
          copy_bytes(recv_buf, send_buf, bytes);
          // Deterministic order: ascending rank, regardless of arrival.
          for (int g = 0; g < x.p; ++g) {
            if (g == root) continue;
            recv_combine(x, g, recv_buf, 0, x.count);
          }
        } else {
          send_range(x, root, send_buf, 0, x.count);
        }
        return;
      }
      case ReduceAlgo::kBinomialTree: {
        // log2(p) rounds of pairwise combines on root-relative ranks, the
        // higher partner folding into the lower — a different deterministic
        // op order than kLinear (bit-identical for HP, different rounding
        // for doubles).
        const int vr = (x.me - root + x.p) % x.p;
        InlineBytes acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        for (int step = 1; step < x.p; step <<= 1) {
          if ((vr & step) != 0) {
            send_range(x, (vr - step + root) % x.p, acc.data(), 0, x.count);
            break;
          }
          if (vr + step < x.p) {
            recv_combine(x, (vr + step + root) % x.p, acc.data(), 0, x.count);
          }
        }
        if (x.me == root) copy_bytes(recv_buf, acc.data(), bytes);
        return;
      }
      case ReduceAlgo::kRecursiveDoubling: {
        // The butterfly is inherently an allreduce; as a rooted reduce,
        // off-root ranks simply discard their copy (topology testbed, not
        // a message-optimal rooted reduce — see ReduceAlgo docs).
        InlineBytes acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        butterfly(x, acc.data());
        if (x.me == root) copy_bytes(recv_buf, acc.data(), bytes);
        return;
      }
      case ReduceAlgo::kRecursiveHalving: {
        InlineBytes acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        const Pow2 s = pow2_split(x.p);
        const int vr = fold_in(x, acc.data(), s);
        if (vr >= 0) reduce_scatter(x, acc.data(), s, vr);
        // Gather the owned (fully reduced) ranges to the root. Empty
        // ranges are skipped on both sides; the root still receives every
        // participant's status because reduce-scatter gossip left every
        // owner holding the global mask.
        for (int v = 0; v < s.q; ++v) {
          const auto [lo, hi] = vrange(x.count, s.m, v, s.m);
          if (lo == hi) continue;
          const int owner = vreal(s, v);
          if (x.me == root && owner == root) {
            copy_bytes(recv_buf + lo * x.dt.size, acc.data() + lo * x.dt.size,
                        (hi - lo) * x.dt.size);
          } else if (x.me == root) {
            recv_range(x, owner, recv_buf, lo, hi);
          } else if (x.me == owner) {
            send_range(x, root, acc.data(), lo, hi);
          }
        }
        return;
      }
    }
  }

  static void reduce(Comm& c, const void* send_buf, void* recv_buf,
                     std::size_t count, const Datatype& dt, const Op& op,
                     int root, ReduceAlgo algo) {
    // Every rank sees the same bad root and throws here, before any
    // message moves: an out-of-range root would otherwise drop the result
    // or fail deep in the transport, depending on the topology.
    if (root < 0 || root >= c.size()) {
      throw std::out_of_range("mpisim: reduce root " + std::to_string(root) +
                              " outside [0, " + std::to_string(c.size()) +
                              ")");
    }
    begin(op);
    ReduceAlgo effective = algo;
    if (count == 0 && (algo == ReduceAlgo::kRecursiveDoubling ||
                       algo == ReduceAlgo::kRecursiveHalving)) {
      // The element-range recursion has nothing to split; linear still
      // moves every rank's (status-carrying) empty message to the root.
      effective = ReduceAlgo::kLinear;
    }
    Ctx x{c, c.rank(), c.size(), c.next_collective_tag(), dt, op, count,
          op.codec != nullptr, {}};
    const flight::Span reduce_span(flight::EventId::kMpiReduce,
                                   flight::current_reduction_id(),
                                   count * dt.size);
    reduce_core(x, static_cast<const std::byte*>(send_buf),
                static_cast<std::byte*>(recv_buf), root, effective);
  }

  static void allreduce(Comm& c, const void* send_buf, void* recv_buf,
                        std::size_t count, const Datatype& dt, const Op& op,
                        ReduceAlgo algo) {
    begin(op);
    ReduceAlgo effective = algo;
    if (count == 0 && (algo == ReduceAlgo::kRecursiveDoubling ||
                       algo == ReduceAlgo::kRecursiveHalving)) {
      effective = ReduceAlgo::kBinomialTree;
    }
    Ctx x{c, c.rank(), c.size(), c.next_collective_tag(), dt, op, count,
          op.codec != nullptr, {}};
    const flight::Span reduce_span(flight::EventId::kMpiReduce,
                                   flight::current_reduction_id(),
                                   count * dt.size);
    const std::size_t bytes = count * dt.size;
    auto* recv = static_cast<std::byte*>(recv_buf);
    switch (effective) {
      case ReduceAlgo::kLinear:
      case ReduceAlgo::kBinomialTree:
        reduce_core(x, static_cast<const std::byte*>(send_buf), recv,
                    /*root=*/0, effective);
        bcast_result(x, recv, /*root=*/0);
        return;
      case ReduceAlgo::kRecursiveDoubling: {
        InlineBytes acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        butterfly(x, acc.data());
        copy_bytes(recv, acc.data(), bytes);
        return;
      }
      case ReduceAlgo::kRecursiveHalving: {
        InlineBytes acc(bytes);
        copy_bytes(acc.data(), send_buf, bytes);
        const Pow2 s = pow2_split(x.p);
        const int vr = fold_in(x, acc.data(), s);
        if (vr >= 0) {
          reduce_scatter(x, acc.data(), s, vr);
          gather_ranges_to_all(x, acc.data(), s, vr);
        }
        fold_out(x, acc.data(), s);
        copy_bytes(recv, acc.data(), bytes);
        return;
      }
    }
  }
};

void Comm::reduce(const void* send_buf, void* recv_buf, std::size_t count,
                  const Datatype& dt, const Op& op, int root,
                  ReduceAlgo algo) {
  detail::Coll::reduce(*this, send_buf, recv_buf, count, dt, op, root, algo);
}

void Comm::allreduce(const void* send_buf, void* recv_buf, std::size_t count,
                     const Datatype& dt, const Op& op, ReduceAlgo algo) {
  detail::Coll::allreduce(*this, send_buf, recv_buf, count, dt, op, algo);
}

// ---------------------------------------------------------------------------
// Engines.

namespace {

/// Rank bodies run under this wrapper in both engines: the first real
/// failure poisons the runtime (waking every blocked peer); the resulting
/// RankAborted cascade on other ranks is expected and not re-recorded.
void guarded_body(Runtime& rt, const std::function<void(Comm&)>& body,
                  Comm& comm) {
  try {
    body(comm);
  } catch (const RankAborted&) {
    // A peer failed first; the root cause is already recorded.
  } catch (...) {
    rt.poison(std::current_exception());
  }
}

#if HPSUM_MPISIM_HAS_FIBERS
void worker_loop(Runtime& rt, std::vector<RankCtx>& ctxs, int nranks, int w,
                 int workers) {
  std::vector<RankCtx*> mine;
  for (int r = w; r < nranks; r += workers) {
    mine.push_back(&ctxs[static_cast<std::size_t>(r)]);
  }
  std::size_t live = mine.size();
  Runtime::Worker& me = rt.worker(w);
  while (live > 0) {
    std::uint64_t seen = 0;
    {
      const std::lock_guard<std::mutex> lock(me.mu);
      seen = me.epoch;
    }
    bool progressed = false;
    for (RankCtx* c : mine) {
      if (c->done || !rt.ready(*c)) continue;
      tl_ctx = c;
      c->fiber->resume();
      tl_ctx = nullptr;
      progressed = true;
      if (c->fiber->finished()) {
        c->done = true;
        --live;
      }
    }
    if (live > 0 && !progressed) {
      // Sleep until the epoch moves past the pre-scan snapshot: any wake
      // that raced the scan is caught by the predicate, not lost.
      std::unique_lock<std::mutex> lock(me.mu);
      me.cv.wait(lock, [&] { return me.epoch != seen; });
    }
  }
}
#endif  // HPSUM_MPISIM_HAS_FIBERS

}  // namespace

void run(int nranks, const std::function<void(Comm&)>& body,
         const RunOptions& opts) {
  if (nranks < 1) {
    throw std::invalid_argument("mpisim::run: nranks must be >= 1");
  }
  if (opts.stack_bytes < kMinStackBytes) {
    throw std::invalid_argument(
        "mpisim::run: stack_bytes must be >= kMinStackBytes (16 KiB)");
  }
  RunMode mode = opts.mode;
  if (mode == RunMode::kAuto) {
    mode = nranks <= kAutoThreadLimit ? RunMode::kThreads
                                      : RunMode::kMultiplexed;
  }
#if !HPSUM_MPISIM_HAS_FIBERS
  mode = RunMode::kThreads;
#endif
  Runtime rt(nranks);
  int workers_used = 0;
  if (mode == RunMode::kThreads) {
    workers_used = nranks;
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&rt, &body, r] {
        flight::set_track("mpisim", r, 0);
        Comm comm(rt, r);
        guarded_body(rt, body, comm);
      });
    }
    threads.clear();  // join: every rank either finished or aborted
  } else {
#if HPSUM_MPISIM_HAS_FIBERS
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    int workers = opts.workers > 0 ? opts.workers : (hw > 0 ? hw : 1);
    workers = std::min(workers, nranks);
    workers_used = workers;
    rt.init_workers(workers);
    std::vector<RankCtx> ctxs(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      RankCtx& c = ctxs[static_cast<std::size_t>(r)];
      c.rank = r;
      c.fiber = std::make_unique<detail::Fiber>(
          opts.stack_bytes, [&rt, &body, r] {
            Comm comm(rt, r);
            guarded_body(rt, body, comm);
          });
    }
    {
      std::vector<std::jthread> pool;
      pool.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&rt, &ctxs, nranks, w, workers] {
          flight::set_track("mpisim.mux", w, 0);
          worker_loop(rt, ctxs, nranks, w, workers);
        });
      }
    }
#endif  // HPSUM_MPISIM_HAS_FIBERS
  }
  if (opts.stats != nullptr) {
    *opts.stats = rt.stats_snapshot();
    opts.stats->workers = workers_used;
    opts.stats->mode = mode;
  }
  if (std::exception_ptr err = rt.first_error()) {
    std::rethrow_exception(err);
  }
}

void run(int nranks, const std::function<void(Comm&)>& body) {
  run(nranks, body, RunOptions{});
}

}  // namespace hpsum::mpisim
