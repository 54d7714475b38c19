// mpisim — an in-process message-passing runtime (the MPI substitute).
//
// No MPI implementation is installed on this host, so the paper's MPI
// experiment (Fig 6: MPI_Reduce over a custom HP datatype with a custom
// MPI_Op) runs on this runtime instead (DESIGN.md §2, docs/MPISIM.md). Its
// surface is what the experiment calls: run, barrier, reduce and
// allreduce. It preserves the properties the experiment exercises:
//   - ranks have separate address spaces for message data: every message a
//     collective sends deep-copies into the receiver's mailbox, so HP
//     values really are serialized, moved, and deserialized;
//   - reductions take a user-registered Datatype + Op, exactly the
//     MPI_Type_contiguous / MPI_Op_create shape the paper describes;
//   - four reduction algorithms (linear, binomial tree, recursive
//     doubling, recursive halving) apply the op in different deterministic
//     orders, which is precisely what makes double sums irreproducible and
//     HP sums bit-identical across topologies.
//
// Rank bodies run either on std::jthreads (one per rank) or, for large
// rank counts, multiplexed as cooperative fibers over a bounded worker
// pool — see RunMode. Ops may attach a WireCodec to compress payloads and
// carry their status mask in-band (see hp_ops.hpp / docs/FORMAT.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace hpsum::mpisim {

namespace detail {
/// Width of the collective tag window [0, kCollectiveTagWindow).
inline constexpr int kCollectiveTagWindow = 1 << 20;

/// Maps a monotonically increasing per-rank collective sequence number into
/// the collective tag window. The window wraps, so multi-billion-collective
/// scaling runs cannot overflow the (signed int) tag — 2^20 collectives
/// would have to be simultaneously outstanding for two live collectives to
/// alias, and the SPMD contract keeps ranks within one collective of each
/// other.
[[nodiscard]] constexpr int collective_tag(std::uint64_t seq) noexcept {
  return static_cast<int>(
      seq % static_cast<std::uint64_t>(kCollectiveTagWindow));
}
struct Coll;
}  // namespace detail

/// Thrown by communication calls on ranks whose peers have failed: when any
/// rank body throws, the runtime is poisoned and every rank blocked in (or
/// later entering) barrier/reduce/allreduce aborts with this error
/// instead of deadlocking. run() rethrows the original (first) error, not
/// the RankAborted cascade.
class RankAborted : public std::runtime_error {
 public:
  RankAborted()
      : std::runtime_error(
            "mpisim: rank aborted (a peer rank failed; see the first "
            "rethrown error)") {}
};

/// Element type descriptor (MPI_Datatype analogue): contiguous bytes.
struct Datatype {
  std::size_t size = 0;  ///< bytes per element
  std::string name;

  /// Built-in: one double.
  static Datatype f64() { return {sizeof(double), "f64"}; }

  /// Contiguous blob of `bytes` bytes (how HP and Hallberg values travel:
  /// the analogue of MPI_Type_contiguous over MPI_UINT64_T).
  static Datatype contiguous(std::size_t bytes, std::string type_name) {
    return {bytes, std::move(type_name)};
  }
};

/// Optional per-Op payload codec. When an Op carries one, collectives ship
/// its encoded form instead of the raw element bytes, and the codec is
/// responsible for round-tripping them exactly. The status byte folded
/// into each message is the sender's Op::observed_status() at send time;
/// decode returns the received mask, which the runtime ORs into the
/// receiver's Op mask — in-band status gossip that makes a separate
/// status-only reduction unnecessary (docs/FORMAT.md, hp_ops.hpp).
///
/// The runtime encodes straight into the message it posts and decodes
/// from the mailbox entry, so a codec is called concurrently from every
/// rank and must hold no mutable state.
struct WireCodec {
  std::string name;
  /// Upper bound on the encoded size of `count` elements.
  std::function<std::size_t(std::size_t count)> bound;
  /// Encodes `count` elements plus the status mask into `out`, which holds
  /// at least bound(count) bytes; returns the encoded size.
  std::function<std::size_t(const std::byte* raw, std::size_t count,
                            std::uint8_t status, std::byte* out)>
      encode;
  std::function<std::uint8_t(const std::byte* msg, std::size_t msg_bytes,
                             std::byte* raw, std::size_t count)>
      decode;
};

/// Reduction operator (MPI_Op analogue): combines one element in place,
/// inout = inout (op) in.
struct Op {
  /// The combine. It may record conditions through a pointer to
  /// *sticky_status (hp_sum_op's does, so its closure fits std::function's
  /// inline storage); keep the Op, or a copy of it, alive while calling it.
  std::function<void(std::byte* inout, const std::byte* in)> fn;
  std::string name;
  /// Optional condition mask. Ops whose combine step can observe
  /// exceptional conditions (e.g. HP add overflow) OR them in here instead
  /// of discarding them; copies of the Op share one mask. Collects the
  /// combines executed by the rank holding this Op, plus — when a codec is
  /// attached — every status mask received on the wire (see WireCodec).
  /// Without a codec, gather conditions from *all* ranks by reducing the
  /// mask too (see reduce_hp_value).
  ///
  /// Scope is ONE reduction: Comm::reduce / Comm::allreduce clear the mask
  /// on entry, so observed_status() after a reduction reports that
  /// reduction's conditions only. (An Op reused across reductions used to
  /// bleed an overflow seen in one allreduce into the status of later,
  /// unrelated reductions.)
  std::shared_ptr<std::atomic<std::uint8_t>> sticky_status;

  /// Optional payload codec; null means raw element bytes on the wire.
  /// Requires sticky_status (collectives validate).
  std::shared_ptr<const WireCodec> codec;

  /// OR'd into the mask right after the start-of-reduction reset: lets a
  /// caller's pre-existing local conditions (e.g. the deposit-phase status
  /// of its HP partial) ride the wire with the payload.
  std::uint8_t seed_status = 0;

  /// The conditions observed by this op's combines during the most recent
  /// reduction (0 if the op does not track any).
  [[nodiscard]] std::uint8_t observed_status() const noexcept {
    return sticky_status ? sticky_status->load(std::memory_order_relaxed) : 0;
  }

  /// Clears the condition mask — the start-of-reduction reset that scopes
  /// observed_status() to a single operation.
  void reset_status() const noexcept {
    if (sticky_status) sticky_status->store(0, std::memory_order_relaxed);
  }
};

/// Reduction algorithm. Different algorithms apply Op in different (but
/// deterministic) orders — the order-invariance testbed. All four produce
/// bit-identical results for exact (associative + commutative) ops like HP
/// limb addition; for doubles each topology rounds differently.
enum class ReduceAlgo {
  kLinear,        ///< root folds ranks 1..p-1 into its buffer in rank order
  kBinomialTree,  ///< log2(p) rounds of pairwise combines toward the root
  /// Butterfly (hypercube) exchange: log2(p) rounds, every rank combines
  /// with partner rank^mask and ends holding the full result — the natural
  /// allreduce. Non-power-of-two rank counts pre-fold the excess pairwise.
  /// As a rooted reduce this runs the butterfly and discards off-root
  /// copies (a topology testbed, not a message-optimal rooted reduce).
  kRecursiveDoubling,
  /// Reduce-scatter by recursive halving of the element range, then an
  /// all-gather (for allreduce) or a gather of the owned ranges to the root
  /// (for reduce). Bandwidth-optimal for long vectors.
  kRecursiveHalving
};

class Runtime;

/// How run() executes rank bodies.
enum class RunMode {
  /// kThreads for small rank counts, kMultiplexed above 128 ranks (falls
  /// back to kThreads where fibers are unavailable).
  kAuto,
  /// One std::jthread per rank — real preemptive parallelism, caps out
  /// near OS thread limits.
  kThreads,
  /// Cooperative fibers multiplexed over a bounded worker pool: a rank
  /// blocked in a collective or barrier yields its worker. Scales to
  /// thousands of simulated ranks; requires rank bodies to block only
  /// through mpisim primitives (the usual SPMD shape).
  kMultiplexed
};

/// Aggregate statistics for one run(), collected with plain atomics so
/// they are exact even when the trace subsystem is compiled out
/// (HPSUM_TRACE=OFF) — the fig6 wire-compression numbers come from here.
struct RunStats {
  std::uint64_t messages = 0;    ///< messages the collectives posted
  std::uint64_t bytes_sent = 0;  ///< total payload bytes posted
  /// Collective payload bytes before encoding (what the raw wire would
  /// have carried). Equals wire_encoded_bytes for codec-less ops.
  std::uint64_t wire_raw_bytes = 0;
  /// Collective payload bytes actually posted after any Op codec.
  std::uint64_t wire_encoded_bytes = 0;
  int workers = 0;                      ///< worker threads used
  RunMode mode = RunMode::kThreads;     ///< resolved execution mode
};

/// Smallest RunOptions::stack_bytes run() accepts.
inline constexpr std::size_t kMinStackBytes = 16 * 1024;

/// Tuning knobs for run(). Defaults reproduce the historical behavior for
/// small rank counts and switch to the multiplexed engine for large ones.
struct RunOptions {
  RunMode mode = RunMode::kAuto;
  /// Worker threads for kMultiplexed (0 = hardware concurrency).
  int workers = 0;
  /// Stack bytes per fiber in kMultiplexed. run() throws
  /// std::invalid_argument below kMinStackBytes, whatever the mode.
  std::size_t stack_bytes = 256 * 1024;
  /// When non-null, filled with this run's statistics on completion.
  RunStats* stats = nullptr;
};

/// Per-rank communicator handle (valid only inside the rank body).
class Comm {
 public:
  /// This rank's id in [0, size()).
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Number of ranks.
  [[nodiscard]] int size() const noexcept;

  /// Synchronizes all ranks.
  void barrier();

  /// Element-wise reduction of `count` elements of `dt` to `root`
  /// (MPI_Reduce analogue). `recv` may be null on non-root ranks. Throws
  /// std::out_of_range on every rank, before any message moves, unless
  /// root is in [0, size()).
  void reduce(const void* send, void* recv, std::size_t count,
              const Datatype& dt, const Op& op, int root,
              ReduceAlgo algo = ReduceAlgo::kBinomialTree);

  /// Reduction delivered to every rank (MPI_Allreduce analogue).
  /// kLinear/kBinomialTree run reduce + bcast; kRecursiveDoubling runs the
  /// butterfly natively; kRecursiveHalving runs reduce-scatter +
  /// all-gather. For non-exact ops (doubles) the two native algorithms may
  /// deliver differently-rounded values on different ranks — exact HP
  /// payloads are bit-identical everywhere, which is the point.
  void allreduce(const void* send, void* recv, std::size_t count,
                 const Datatype& dt, const Op& op,
                 ReduceAlgo algo = ReduceAlgo::kBinomialTree);

 private:
  friend void run(int nranks, const std::function<void(Comm&)>& body,
                  const RunOptions& opts);
  friend struct detail::Coll;
  Comm(Runtime& rt, int rank) : rt_(&rt), rank_(rank) {}

  /// The transport under every collective: tagged deep-copy send, and a
  /// blocking receive that checks the message is exactly `bytes` long
  /// (std::logic_error otherwise).
  void send(int dest, int tag, const void* buf, std::size_t bytes);
  void recv(int source, int tag, void* buf, std::size_t bytes);
  /// Codec-encoded counterparts: send_encoded encodes `count` elements and
  /// `status` straight into the posted message and returns its size;
  /// recv_decoded decodes the matching message in place in the mailbox
  /// and returns the status mask it carried.
  std::size_t send_encoded(int dest, int tag, const WireCodec& codec,
                           const std::byte* raw, std::size_t count,
                           std::uint8_t status);
  std::uint8_t recv_decoded(int source, int tag, const WireCodec& codec,
                            std::byte* raw, std::size_t count);

  [[nodiscard]] int next_collective_tag() noexcept {
    return detail::collective_tag(coll_seq_++);
  }

  Runtime* rt_;
  int rank_;
  /// Per-rank collective sequence number; stamps collective message tags so
  /// back-to-back collectives cannot cross-match (wraps via
  /// detail::collective_tag).
  std::uint64_t coll_seq_ = 0;
};

/// Launches `nranks` rank bodies (threads or multiplexed fibers, per
/// RunOptions) and waits for completion. If any rank body throws, the
/// runtime is poisoned: every other rank blocked in a communication call
/// aborts with RankAborted (no deadlock), and the first original error is
/// rethrown here. Throws std::invalid_argument, before any rank starts, if
/// nranks < 1 or opts.stack_bytes < kMinStackBytes.
void run(int nranks, const std::function<void(Comm&)>& body,
         const RunOptions& opts);
void run(int nranks, const std::function<void(Comm&)>& body);

}  // namespace hpsum::mpisim
