// engine — sharded deposit sinks, epoch snapshots, checkpoint/restore.
//
// The load-bearing test is SnapshotsEqualPrefixOracleUnderLoad: depositor
// threads stream a constant whose integer part acts as a deposit counter,
// so every concurrent snapshot self-describes how many deposits it folded
// — and must then be bit-equal to the sequential prefix sum with that
// count. That is the engine's whole contract (live snapshots are exact,
// not approximately current), and it runs TSan-clean in the full-suite
// tsan CI job.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backends/accumulators.hpp"
#include "backends/scaling.hpp"
#include "core/reduce.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace {

using namespace hpsum;
using engine::DynSum;
using engine::ShardSet;

std::vector<double> mixed_stream(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back((rng.uniform01() - 0.5) * 1e6);
  }
  return xs;
}

TEST(Engine, DrainMatchesSequentialReferenceAcrossLaneCounts) {
  const HpConfig cfg{6, 3};
  const auto xs = mixed_stream(40'000, 42);
  const HpDyn reference = reduce_hp(xs, cfg);
  for (const std::size_t lanes : {1u, 2u, 3u, 7u, 16u}) {
    ShardSet<DynSum> sink(lanes, DynSum(cfg));
    const auto slices = backends::partition(xs, static_cast<int>(lanes));
    for (std::size_t t = 0; t < lanes; ++t) {
      sink.shard(t).deposit(slices[t]);
    }
    const DynSum total = sink.drain();
    EXPECT_EQ(total.hp, reference) << lanes << " lanes";
    EXPECT_EQ(total.hp.status(), reference.status());
  }
}

TEST(Engine, StickyStatusSurvivesShardingAndSnapshot) {
  // 2^-200 is far below HP(4,2)'s fraction resolution: every deposit of
  // it must raise kInexact, and the flag must survive the shard merge.
  const HpConfig cfg{4, 2};
  std::vector<double> xs = mixed_stream(1'000, 7);
  xs.push_back(std::ldexp(1.0, -200));
  const HpDyn reference = reduce_hp(xs, cfg);
  ASSERT_TRUE(has(reference.status(), HpStatus::kInexact));

  ShardSet<DynSum> sink(3, DynSum(cfg));
  const auto slices = backends::partition(xs, 3);
  for (std::size_t t = 0; t < 3; ++t) sink.shard(t).deposit(slices[t]);
  const DynSum snap = sink.snapshot();
  EXPECT_EQ(snap.hp, reference);
  EXPECT_EQ(snap.hp.status(), reference.status());
}

TEST(Engine, LocalReduceIsTheSequentialReference) {
  const HpConfig cfg{6, 3};
  const auto xs = mixed_stream(10'000, 11);
  const HpDyn v = engine::local_reduce(xs, cfg);
  const HpDyn reference = reduce_hp(xs, cfg);
  EXPECT_EQ(v, reference);
  EXPECT_EQ(v.status(), reference.status());
}

TEST(Engine, TriviallyCopyableCodecRoundTripsThroughSnapshot) {
  // DoubleSum exercises the default object-representation codec.
  ShardSet<backends::DoubleSum> sink(2);
  sink.shard(0).deposit(std::ldexp(1.0, -30));
  sink.shard(1).deposit(2.5);
  const backends::DoubleSum snap = sink.snapshot();
  EXPECT_EQ(snap.result(), std::ldexp(1.0, -30) + 2.5);

  // So does a fixed-format HP lane: limbs and status through the codec.
  auto xs = mixed_stream(6'000, 21);
  xs[7] = std::ldexp(1.0, -250);  // raises kInexact in HP(6,3)
  ShardSet<backends::HpSum<6, 3>> hp_sink(2);
  const auto slices = backends::partition(xs, 2);
  hp_sink.shard(0).deposit(slices[0]);
  hp_sink.shard(1).deposit(slices[1]);
  const auto hp_snap = hp_sink.snapshot();
  const auto reference = reduce_hp<6, 3>(xs);
  ASSERT_TRUE(has(reference.status(), HpStatus::kInexact));
  EXPECT_EQ(hp_snap.hp, reference);
  EXPECT_EQ(hp_snap.hp.status(), reference.status());
}

TEST(Engine, SnapshotsEqualPrefixOracleUnderLoad) {
  // v = 1 + 2^-40: exactly representable in double and HP(4,2), and a
  // total of M deposits has integer part exactly M — the monotone deposit
  // counter embedded in the stream.
  const HpConfig cfg{4, 2};
  const double v = 1.0 + std::ldexp(1.0, -40);
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 8'000;
  constexpr std::size_t kTotal = kWriters * kPerWriter;
  constexpr std::size_t kReaders = 2;

  std::vector<HpDyn> prefix;
  prefix.reserve(kTotal + 1);
  HpDyn acc(cfg);
  prefix.push_back(acc);
  for (std::size_t i = 0; i < kTotal; ++i) {
    acc += v;
    prefix.push_back(acc);
  }
  ASSERT_EQ(prefix[kTotal].status(), HpStatus::kOk);
  ASSERT_EQ(prefix[kTotal].limbs()[1], kTotal);  // low integer limb == M

  ShardSet<DynSum> sink(kWriters, DynSum(cfg));
  std::atomic<int> writers_done{0};
  std::atomic<std::uint64_t> snapshots_taken{0};
  {
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        auto lane = sink.shard(w);
        for (std::size_t i = 0; i < kPerWriter; ++i) lane.deposit(v);
        writers_done.fetch_add(1, std::memory_order_release);
      });
    }
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        std::uint64_t last_m = 0;
        while (true) {
          const bool done =
              writers_done.load(std::memory_order_acquire) == kWriters;
          const DynSum snap = sink.snapshot();
          snapshots_taken.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t m = snap.hp.limbs()[1];
          ASSERT_LE(m, kTotal);
          ASSERT_GE(m, last_m);  // per-reader monotone deposit counter
          last_m = m;
          ASSERT_EQ(snap.hp, prefix[m]);
          ASSERT_EQ(snap.hp.status(), HpStatus::kOk);
          if (done) break;
        }
      });
    }
  }
  EXPECT_GE(snapshots_taken.load(), kReaders);
  const DynSum final_snap = sink.snapshot();
  EXPECT_EQ(final_snap.hp, prefix[kTotal]);
}

TEST(Engine, DynSumMergeMatchesTheCheckedAdd) {
  // The non-throwing merge is HpDyn's += minus the format check: limbs
  // and sticky status, including a flag raised on either side.
  const HpConfig cfg{2, 1};
  DynSum a(cfg);
  DynSum b(cfg);
  a.accumulate(1e30);  // out of range: kConvertOverflow
  b.accumulate(std::ldexp(1.0, 62));
  b.accumulate(std::ldexp(1.0, 62));  // carries into the sign: kAddOverflow
  HpDyn expect = a.hp;
  expect += b.hp;
  a.merge(b);
  EXPECT_EQ(a.hp, expect);
  EXPECT_EQ(a.hp.status(), expect.status());
  EXPECT_TRUE(has(a.hp.status(), HpStatus::kConvertOverflow));
  EXPECT_TRUE(has(a.hp.status(), HpStatus::kAddOverflow));
}

TEST(Engine, DynSumMergeOfMixedFormatsAbortsInEveryBuild) {
  // A mismatch is not an assert, which release builds drop: it would read
  // past the shorter limb array (n differs) or add misaligned limbs (only
  // k differs).
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DynSum a(HpConfig{6, 3});
  EXPECT_DEATH(a.merge(DynSum(HpConfig{2, 1})), "formats differ");
  EXPECT_DEATH(a.merge(DynSum(HpConfig{6, 2})), "formats differ");
}

TEST(Engine, CheckpointRestoresAcrossDifferentShardCounts) {
  const HpConfig cfg{6, 3};
  auto xs = mixed_stream(20'000, 3);
  xs[100] = std::ldexp(1.0, -250);  // raises kInexact in HP(6,3)
  const std::size_t half = xs.size() / 2;
  const std::span<const double> first(xs.data(), half);
  const std::span<const double> second(xs.data() + half, xs.size() - half);
  const HpDyn uninterrupted = reduce_hp(xs, cfg);
  const HpDyn at_half = reduce_hp(first, cfg);
  ASSERT_TRUE(has(at_half.status(), HpStatus::kInexact));

  ShardSet<DynSum> source(3, DynSum(cfg));
  const auto slices = backends::partition(first, 3);
  for (std::size_t t = 0; t < 3; ++t) source.shard(t).deposit(slices[t]);
  const std::vector<std::byte> ckpt = source.checkpoint();

  // Restore into a wider and a narrower set: the merged totals must be
  // bit-identical (limbs AND sticky status) despite the redistribution.
  for (const std::size_t lanes : {5u, 1u}) {
    ShardSet<DynSum> restored(lanes, DynSum(cfg));
    restored.restore(ckpt);
    const DynSum snap = restored.snapshot();
    EXPECT_EQ(snap.hp, at_half) << lanes << " lanes";
    EXPECT_EQ(snap.hp.status(), at_half.status());
  }

  // Resume on the wider set: checkpoint + remaining deposits must equal
  // the uninterrupted reduction.
  ShardSet<DynSum> resumed(5, DynSum(cfg));
  resumed.restore(ckpt);
  const auto rest = backends::partition(second, 5);
  for (std::size_t t = 0; t < 5; ++t) resumed.shard(t).deposit(rest[t]);
  const DynSum total = resumed.drain();
  EXPECT_EQ(total.hp, uninterrupted);
  EXPECT_EQ(total.hp.status(), uninterrupted.status());
}

TEST(Engine, MalformedCheckpointsAreRejected) {
  const HpConfig cfg{6, 3};
  ShardSet<DynSum> sink(2, DynSum(cfg));
  sink.shard(0).deposit(1.5);
  std::vector<std::byte> ckpt = sink.checkpoint();

  ShardSet<DynSum> target(2, DynSum(cfg));
  {
    auto bad = ckpt;
    bad[0] = std::byte{'X'};
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {
    auto bad = ckpt;
    bad[2] = std::byte{9};  // unsupported version
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {
    auto bad = ckpt;
    bad.resize(bad.size() - 3);  // truncated frame
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {
    auto bad = ckpt;
    bad.push_back(std::byte{0});  // trailing bytes
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  // A format-mismatched but well-formed checkpoint is also refused.
  ShardSet<DynSum> narrow(2, DynSum(HpConfig{4, 2}));
  EXPECT_THROW(narrow.restore(ckpt), std::invalid_argument);
}

TEST(Engine, CheckpointIsOneFramePerLane) {
  // 8-byte header + per lane a 4-byte size and a 56-byte HP(6,3) image.
  const HpConfig cfg{6, 3};
  ShardSet<DynSum> sink(2, DynSum(cfg));
  sink.shard(0).deposit(1.5);
  sink.shard(1).deposit(-0.25);
  const auto ckpt = sink.checkpoint();
  EXPECT_EQ(ckpt.size(), 128u);
  const auto frames = engine::unframe_checkpoint(ckpt);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].to_double(), 1.5);
  EXPECT_EQ(frames[1].to_double(), -0.25);
}

TEST(Engine, RestoreIsAllOrNothing) {
  // A well-formed checkpoint whose second frame has another format: the
  // throw must leave the set as it was, first frame included.
  const HpConfig cfg{6, 3};
  const auto ckpt = engine::frame_checkpoint(
      {HpDyn(cfg, 1.5), HpDyn(HpConfig{4, 2}, 2.0)});
  ShardSet<DynSum> sink(2, DynSum(cfg));
  EXPECT_THROW(sink.restore(ckpt), std::invalid_argument);
  const DynSum snap = sink.snapshot();
  EXPECT_EQ(snap.hp, HpDyn(cfg));
  EXPECT_EQ(snap.hp.status(), HpStatus::kOk);
  EXPECT_EQ(sink.drain().result(), 0.0);
}

TEST(Engine, CheckpointsWithALeadingTotalFrameStillRestore) {
  // Earlier HE v1 checkpoints carried one extra frame ahead of the lanes
  // (a total of shards that had left the set, zero when none had). The
  // frame list has no shard semantics, so both forms restore exactly.
  const HpConfig cfg{6, 3};
  auto xs = mixed_stream(9'000, 5);
  xs[10] = std::ldexp(1.0, -250);  // raises kInexact in the leading frame
  const auto slices = backends::partition(xs, 3);
  const HpDyn lead = reduce_hp(slices[0], cfg);
  const HpDyn p0 = reduce_hp(slices[1], cfg);
  const HpDyn p1 = reduce_hp(slices[2], cfg);
  ASSERT_TRUE(has(lead.status(), HpStatus::kInexact));

  const auto restore_total = [&](const std::vector<std::byte>& bytes) {
    ShardSet<DynSum> sink(2, DynSum(cfg));
    sink.restore(bytes);
    return sink.snapshot().hp;
  };

  const HpDyn lanes_only = restore_total(engine::frame_checkpoint({p0, p1}));
  const HpDyn zero_lead =
      restore_total(engine::frame_checkpoint({HpDyn(cfg), p0, p1}));
  EXPECT_EQ(zero_lead, lanes_only);
  EXPECT_EQ(zero_lead.status(), lanes_only.status());

  const HpDyn reference = reduce_hp(xs, cfg);
  const HpDyn with_lead =
      restore_total(engine::frame_checkpoint({lead, p0, p1}));
  EXPECT_EQ(with_lead, reference);
  EXPECT_EQ(with_lead.status(), reference.status());
  const HpDyn lead_last =
      restore_total(engine::frame_checkpoint({p0, p1, lead}));
  EXPECT_EQ(with_lead, lead_last);
  EXPECT_EQ(with_lead.status(), lead_last.status());
}

TEST(Engine, HugeFrameCountIsRejectedBeforeAllocating) {
  // A bare header claiming 0xFFFFFFFF frames: the count must be checked
  // against the input, not handed to reserve() (which threw bad_alloc).
  const std::vector<std::byte> header = {
      std::byte{'H'},  std::byte{'E'},  std::byte{1},    std::byte{0},
      std::byte{0xFF}, std::byte{0xFF}, std::byte{0xFF}, std::byte{0xFF}};
  EXPECT_THROW((void)engine::unframe_checkpoint(header), std::invalid_argument);
}

TEST(Engine, DrainResetsForReuse) {
  const HpConfig cfg{6, 3};
  ShardSet<DynSum> sink(2, DynSum(cfg));
  sink.shard(0).deposit(1.0);
  sink.shard(1).deposit(2.0);
  const DynSum first = sink.drain();
  EXPECT_EQ(first.result(), 3.0);

  // After drain the set is empty again — both via snapshot and via a
  // fresh accumulate/drain cycle.
  EXPECT_EQ(sink.snapshot().result(), 0.0);
  sink.shard(0).deposit(5.0);
  EXPECT_EQ(sink.drain().result(), 5.0);

  sink.shard(1).deposit(7.0);
  EXPECT_EQ(sink.drain().result(), 7.0);
  EXPECT_EQ(sink.snapshot().result(), 0.0);
}

TEST(Engine, ZeroLanesIsRejected) {
  EXPECT_THROW(ShardSet<backends::DoubleSum> sink(0), std::invalid_argument);
}

TEST(Engine, FramingRoundTripsAndCountsAreExact) {
  const HpConfig cfg{4, 2};
  std::vector<HpDyn> frames;
  frames.emplace_back(cfg, 1.25);
  frames.emplace_back(cfg, -3.0);
  frames.back().or_status(HpStatus::kInexact);
  const auto bytes = engine::frame_checkpoint(frames);
  const auto back = engine::unframe_checkpoint(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], frames[0]);
  EXPECT_EQ(back[1], frames[1]);
  EXPECT_EQ(back[1].status(), HpStatus::kInexact);

  const auto empty = engine::unframe_checkpoint(
      engine::frame_checkpoint(std::vector<HpDyn>{}));
  EXPECT_TRUE(empty.empty());
}

TEST(Engine, TraceCountersTrackLifecycle) {
  if (!trace::enabled()) GTEST_SKIP() << "trace compiled out";
  const HpConfig cfg{4, 2};
  const auto before = trace::snapshot();
  {
    ShardSet<DynSum> sink(2, DynSum(cfg));
    sink.shard(0).deposit(1.0);
    sink.shard(1).deposit(2.0);
    (void)sink.snapshot();
    const auto ckpt = sink.checkpoint();
    ShardSet<DynSum> restored(3, DynSum(cfg));
    restored.restore(ckpt);
    EXPECT_EQ(restored.drain().result(), 3.0);
    EXPECT_EQ(sink.drain().result(), 3.0);
  }
  const auto d = trace::snapshot().delta_since(before);
  // One collect pass each for snapshot() and checkpoint(); construction,
  // restore() and drain() are not snapshots.
  EXPECT_EQ(d.value(trace::Counter::kEngineSnapshots), 2u);
}

TEST(Engine, DrainIsNotCountedAsSnapshot) {
  if (!trace::enabled()) GTEST_SKIP() << "trace compiled out";
  ShardSet<backends::DoubleSum> sink(2);
  sink.shard(0).deposit(1.0);
  const auto before = trace::snapshot();
  (void)sink.drain();
  const auto d = trace::snapshot().delta_since(before);
  EXPECT_EQ(d.value(trace::Counter::kEngineSnapshots), 0u);
}

}  // namespace
