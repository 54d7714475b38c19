// checkpoint_restart — lossless engine checkpointing across shard counts.
//
// Long simulations checkpoint running sums. A checkpoint that stores the
// accumulator as a double throws away everything below the 53rd bit, so
// the restarted run silently diverges from the uninterrupted one. The
// engine's sharded sinks checkpoint losslessly: checkpoint() frames
// every lane over the canonical docs/FORMAT.md serialization (magic +
// format + sticky status + limbs per frame), and restore() redistributes
// the frames over however many shards the restarted run has. Because HP addition is exact, regrouping the
// partials is bit-invisible — a run checkpointed on 3 worker threads and
// restarted on 8 (or 1) finishes bit-identical, limbs AND status, to the
// run that never stopped. A double-valued checkpoint, restarted the same
// way, does not.
//
// Build & run:  ./build/examples/checkpoint_restart
#include <cstdio>
#include <span>
#include <vector>

#include "backends/scaling.hpp"
#include "core/hp_dyn.hpp"
#include "core/reduce.hpp"
#include "engine/engine.hpp"
#include "workload/workload.hpp"

namespace {

/// Deposits `xs` into the set's lanes as a contiguous partition (lane t
/// takes slice t — the shape every parallel driver in this repo uses).
void deposit_partitioned(hpsum::engine::ShardSet<hpsum::engine::DynSum>& sink,
                         std::span<const double> xs) {
  const auto slices =
      hpsum::backends::partition(xs, static_cast<int>(sink.lanes()));
  for (std::size_t t = 0; t < sink.lanes(); ++t) {
    sink.shard(t).deposit(slices[t]);
  }
}

}  // namespace

int main() {
  using namespace hpsum;
  const HpConfig cfg{6, 3};
  const auto xs = workload::nbody_force_set(2'000'000, 99);
  const auto half = xs.size() / 2;
  const std::span<const double> first(xs.data(), half);
  const std::span<const double> second(xs.data() + half, xs.size() - half);

  // The uninterrupted run, on 3 engine shards.
  engine::ShardSet<engine::DynSum> whole(3, engine::DynSum(cfg));
  deposit_partitioned(whole, xs);
  const HpDyn uninterrupted = whole.drain().hp;

  // Run the first half on 3 shards and checkpoint the live set.
  engine::ShardSet<engine::DynSum> source(3, engine::DynSum(cfg));
  deposit_partitioned(source, first);
  const std::vector<std::byte> ckpt = source.checkpoint();
  const double double_ckpt = source.snapshot().result();  // the lossy way

  std::printf("checkpoint after %zu of %zu summands on %zu shards\n", half,
              xs.size(), source.lanes());
  std::printf("  engine checkpoint: %zu bytes "
              "(per-shard frames: format + status + limbs)\n\n",
              ckpt.size());

  // Restart on a DIFFERENT shard count: restore() deals the 3 frames
  // (one per shard) round-robin over 8 lanes, then the second half of the
  // stream lands on all 8.
  engine::ShardSet<engine::DynSum> wide(8, engine::DynSum(cfg));
  wide.restore(ckpt);
  deposit_partitioned(wide, second);
  const HpDyn restart_wide = wide.drain().hp;

  // Restart single-threaded from the same checkpoint.
  engine::ShardSet<engine::DynSum> narrow(1, engine::DynSum(cfg));
  narrow.restore(ckpt);
  narrow.shard(0).deposit(second);
  const HpDyn restart_narrow = narrow.drain().hp;

  // Restart from the lossy double checkpoint (same 8-lane shape as the
  // wide path, so the only difference is what the checkpoint kept).
  engine::ShardSet<engine::DynSum> lossy(8, engine::DynSum(cfg));
  lossy.shard(0).deposit(double_ckpt);
  deposit_partitioned(lossy, second);
  const HpDyn restart_lossy = lossy.drain().hp;

  const auto report = [&](const char* label, const HpDyn& v) {
    const bool same = v == uninterrupted && v.status() == uninterrupted.status();
    std::printf("%-28s %.17e  bit-identical to uninterrupted: %s\n", label,
                v.to_double(), same ? "yes" : "NO");
  };
  std::printf("uninterrupted (3 shards)     %.17e\n",
              uninterrupted.to_double());
  report("restart on 8 shards", restart_wide);
  report("restart on 1 shard", restart_narrow);
  report("restart from double (lossy)", restart_lossy);

  const bool ok = restart_wide == uninterrupted &&
                  restart_wide.status() == uninterrupted.status() &&
                  restart_narrow == uninterrupted &&
                  restart_narrow.status() == uninterrupted.status();
  std::printf(
      "\nengine checkpoints restore the full %d-bit state onto any shard "
      "count; the double checkpoint lost the sub-ulp tail and the run can "
      "no longer validate bit-for-bit.\n",
      64 * cfg.n);
  return ok ? 0 : 1;
}
