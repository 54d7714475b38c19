// Differential fuzz of the carry-deferred block path (BlockAccumulator /
// kernel::block_add/block_flush) against the scalar scatter-add loop.
//
// The contract under test: for every (n, k) format, every starting
// accumulator state, and every finite/non-finite double stream, depositing
// the stream through the block path leaves the limbs bit-identical to the
// element-at-a-time scalar path AND accumulates exactly the same sticky
// status. The corpus deliberately includes mid-block kAddOverflow (streams
// that leave the representable range part-way through a block), NaN/Inf,
// signed zeros, sub-lsb truncation, and accumulator states that force the
// block path's scalar fallback on every deposit (most-negative value).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/hp_config.hpp"
#include "core/hp_dyn.hpp"
#include "core/hp_fixed.hpp"
#include "core/hp_kernel.hpp"
#include "core/hp_kernel_chunk.hpp"
#include "core/hp_kernel_simd.hpp"
#include "core/reduce.hpp"
#include "trace/trace.hpp"
#include "util/prng.hpp"
#include "workload/workload.hpp"

namespace hpsum {
namespace {

using util::Limb;

/// One draw from the adversarial summand corpus (mirrors
/// test_scatter_add.cpp, plus non-finite values: the block path must keep
/// the accumulator untouched and the status sticky for those too).
double adversarial_double(util::Xoshiro256ss& rng, const HpConfig& cfg) {
  const bool neg = (rng.next() & 1) != 0;
  switch (rng.bounded(9)) {
    case 0:  // subnormal
      return std::bit_cast<double>((static_cast<std::uint64_t>(neg) << 63) |
                                   (rng.next() >> 12));
    case 1:  // signed zero
      return neg ? -0.0 : 0.0;
    case 2: {  // straddling the 2^-64k lsb
      const int e =
          min_exponent(cfg) - 60 + static_cast<int>(rng.bounded(120));
      const double v = std::ldexp(1.0 + rng.uniform01(), e);
      return neg ? -v : v;
    }
    case 3: {  // at / just past max_range — mid-block overflow fuel
      const int e = max_exponent(cfg) - 2 + static_cast<int>(rng.bounded(4));
      const double v = std::ldexp(1.0 + rng.uniform01(), e);
      return neg ? -v : v;
    }
    case 4: {  // power of two at a limb seam
      const int limb =
          static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cfg.n)));
      const int e =
          min_exponent(cfg) + 64 * limb - 1 + static_cast<int>(rng.bounded(3));
      const double v = std::ldexp(1.0, e);
      return neg ? -v : v;
    }
    case 5:  // non-finite
      switch (rng.bounded(3)) {
        case 0:
          return std::numeric_limits<double>::infinity();
        case 1:
          return -std::numeric_limits<double>::infinity();
        default:
          return std::numeric_limits<double>::quiet_NaN();
      }
    case 6: {  // fully random finite bit pattern
      const std::uint64_t be = rng.bounded(2047);
      return std::bit_cast<double>((static_cast<std::uint64_t>(neg) << 63) |
                                   (be << 52) | (rng.next() >> 12));
    }
    default: {  // representable mid-range value
      const int lo = min_exponent(cfg) + 53;
      const int hi = max_exponent(cfg) - 2;
      const int e = hi <= lo ? lo
                             : lo + static_cast<int>(rng.bounded(
                                        static_cast<std::uint64_t>(hi - lo)));
      const double v = std::ldexp(1.0 + rng.uniform01(), e);
      return neg ? -v : v;
    }
  }
}

/// One draw from the adversarial starting-state corpus.
std::vector<Limb> adversarial_acc(util::Xoshiro256ss& rng,
                                  const HpConfig& cfg) {
  std::vector<Limb> a(static_cast<std::size_t>(cfg.n), 0);
  switch (rng.bounded(6)) {
    case 0:  // zero
      break;
    case 1:  // fully random
      for (auto& l : a) l = rng.next();
      break;
    case 2:  // -lsb
      for (auto& l : a) l = ~Limb{0};
      break;
    case 3:  // largest positive: bound starts at 64n-1, instant fallback
      a[0] = ~Limb{0} >> 1;
      for (std::size_t i = 1; i < a.size(); ++i) a[i] = ~Limb{0};
      break;
    case 4:  // most negative: block_bound_exp = 64n, permanent fallback
      a[0] = Limb{1} << 63;
      break;
    default:  // low limbs saturated
      for (std::size_t i = 1; i < a.size(); ++i) a[i] = ~Limb{0};
      break;
  }
  return a;
}

/// The differential check at kernel level: block path vs scalar loop from
/// the same starting limbs, limbs AND status must both match.
void expect_block_matches(const HpConfig& cfg, const std::vector<Limb>& start,
                          const std::vector<double>& xs) {
  // Scalar reference: one scatter deposit per element, statuses ORed.
  std::vector<Limb> scalar = start;
  HpStatus scalar_st = HpStatus::kOk;
  for (const double x : xs) {
    scalar_st |= detail::scatter_add_double(scalar.data(), cfg.n, cfg.k, x);
  }
  // Block path: seed bound from the start value, accumulate, flush.
  std::vector<Limb> block = start;
  std::vector<kernel::U128> pos(static_cast<std::size_t>(cfg.n) + 1, 0);
  std::vector<kernel::U128> neg(static_cast<std::size_t>(cfg.n) + 1, 0);
  int bound = kernel::block_bound_exp(block.data(), cfg.n);
  int pending = 0;
  const HpStatus block_st =
      kernel::block_accumulate(block.data(), pos.data(), neg.data(), cfg.n,
                               cfg.k, bound, pending,
                               std::span<const double>(xs.data(), xs.size()));
  kernel::block_flush(block.data(), pos.data(), neg.data(), cfg.n, bound,
                      pending);
  ASSERT_EQ(scalar, block) << "limb mismatch: n=" << cfg.n << " k=" << cfg.k
                           << " stream length " << xs.size();
  ASSERT_EQ(scalar_st, block_st)
      << "status mismatch: n=" << cfg.n << " k=" << cfg.k << " scalar="
      << to_string(scalar_st) << " block=" << to_string(block_st);
}

// ---------------------------------------------------------------------------
// Exhaustive format sweep: every (n, k) with n <= 16, 0 <= k <= n.
// ---------------------------------------------------------------------------

TEST(BlockFuzz, AllSmallFormatsBitIdenticalToScalar) {
  util::Xoshiro256ss rng(0xB10C4ADDull);
  for (int n = 1; n <= 16; ++n) {
    for (int k = 0; k <= n; ++k) {
      const HpConfig cfg{n, k};
      for (int trial = 0; trial < 24; ++trial) {
        const auto start = adversarial_acc(rng, cfg);
        std::vector<double> xs(rng.bounded(40));
        for (auto& x : xs) x = adversarial_double(rng, cfg);
        expect_block_matches(cfg, start, xs);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Long streams on the paper's formats. The adversarial corpus keeps landing
// near max_range, so the deferral budget runs out and the block path
// flushes (and takes the scalar fallback) many times mid-stream.
TEST(BlockFuzz, LongStreamsCrossManyFlushes) {
  util::Xoshiro256ss rng(0xF1005ull);
  for (const HpConfig cfg : {HpConfig{2, 1}, HpConfig{6, 3}, HpConfig{8, 4}}) {
    const auto start = std::vector<Limb>(static_cast<std::size_t>(cfg.n), 0);
    std::vector<double> xs(5000);
    for (auto& x : xs) x = adversarial_double(rng, cfg);
    expect_block_matches(cfg, start, xs);
  }
}

// ---------------------------------------------------------------------------
// Directed edge cases.
// ---------------------------------------------------------------------------

TEST(BlockEdge, MidBlockAddOverflowMatchesScalar) {
  // Walk the accumulator to the top of the range in the middle of one
  // block: the scalar path raises kAddOverflow on the deposit that crosses;
  // the block path must flush, take the scalar fallback, and raise the
  // identical flag at the identical stream position's final state.
  const HpConfig cfg{2, 0};
  const double big = std::ldexp(1.0, max_exponent(cfg) - 1);  // 2^126
  expect_block_matches(cfg, {0, 0}, {big, big, big, 1.0, -big, big});
  // Negative direction.
  expect_block_matches(cfg, {0, 0}, {-big, -big, -big, -1.0, big, -big});
}

TEST(BlockEdge, NonFiniteAndZeroStreams) {
  const HpConfig cfg{6, 3};
  const std::vector<Limb> start(6, 0);
  expect_block_matches(cfg, start,
                       {1.5, std::numeric_limits<double>::infinity(), 2.5});
  expect_block_matches(cfg, start,
                       {std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0});
  expect_block_matches(
      cfg, start,
      {-std::numeric_limits<double>::infinity(), -1.0, 4096.0});
}

TEST(BlockEdge, MostNegativeStartForcesPermanentFallback) {
  // block_bound_exp reports 64n for the most-negative value (its magnitude
  // is not representable), so every deposit must take the scalar fallback —
  // and still match the scalar path exactly.
  const HpConfig cfg{3, 1};
  std::vector<Limb> start(3, 0);
  start[0] = Limb{1} << 63;
  expect_block_matches(cfg, start, {1.0, -2.0, 3.5, -0.125, 1e10});
}

TEST(BlockEdge, StickyStatusSurvivesFlushBoundaries) {
  // A kInexact raised early in a block must still be reported after later
  // flushes; seed a sub-lsb value first, then force flushes with bulk.
  const HpConfig cfg{2, 1};
  std::vector<double> xs{std::ldexp(1.0, -200)};  // kInexact, no bits land
  util::Xoshiro256ss rng(0x57A7);
  for (int i = 0; i < 400; ++i) {
    xs.push_back(std::ldexp(1.0 + rng.uniform01(), -20));
  }
  expect_block_matches(cfg, {0, 0}, xs);
}

// ---------------------------------------------------------------------------
// The value-type APIs built on the kernel.
// ---------------------------------------------------------------------------

TEST(BlockApi, HpFixedAccumulateMatchesScalarLoop) {
  util::Xoshiro256ss rng(0xACC);
  const HpConfig cfg{6, 3};
  std::vector<double> xs(3000);
  for (auto& x : xs) x = adversarial_double(rng, cfg);

  HpFixed<6, 3> scalar;
  for (const double x : xs) scalar += x;
  HpFixed<6, 3> blocked;
  blocked.accumulate(std::span<const double>(xs.data(), xs.size()));
  EXPECT_EQ(scalar, blocked);
  EXPECT_EQ(scalar.status(), blocked.status());
}

TEST(BlockApi, HpFixedAccumulateIntoNonZeroValue) {
  // accumulate() must seed the block path from the existing value and
  // status, not restart from zero.
  std::vector<double> xs{1.5, -2.25, 1e6, -0.5};
  HpFixed<4, 2> scalar(123.75);
  scalar.or_status(HpStatus::kInexact);
  HpFixed<4, 2> blocked = scalar;
  for (const double x : xs) scalar += x;
  blocked.accumulate(std::span<const double>(xs.data(), xs.size()));
  EXPECT_EQ(scalar, blocked);
  EXPECT_EQ(scalar.status(), blocked.status());
}

TEST(BlockApi, HpDynAccumulateMatchesScalarLoop) {
  util::Xoshiro256ss rng(0xD3);
  for (const HpConfig cfg : {HpConfig{2, 1}, HpConfig{6, 3}, HpConfig{17, 8}}) {
    std::vector<double> xs(2000);
    for (auto& x : xs) x = adversarial_double(rng, cfg);
    HpDyn scalar(cfg);
    for (const double x : xs) scalar += x;
    HpDyn blocked(cfg);
    blocked.accumulate(std::span<const double>(xs.data(), xs.size()));
    EXPECT_EQ(scalar, blocked);
    EXPECT_EQ(scalar.status(), blocked.status());
  }
}

TEST(BlockApi, BlockAccumulatorDrainAndReuse) {
  // limbs() flushes and is idempotent; further adds after a drain continue
  // the same value.
  BlockAccumulator<4, 2> blk;
  blk.add(1.5);
  blk.add(-0.25);
  const HpFixed<4, 2> after_two(blk);
  blk.add(10.0);
  HpFixed<4, 2> ref(1.5);
  ref += -0.25;
  EXPECT_EQ(after_two, ref);
  ref += 10.0;
  const HpFixed<4, 2> drained(blk);
  EXPECT_EQ(drained, ref);
  const HpFixed<4, 2> drained_again(blk);  // draining twice: same value
  EXPECT_EQ(drained_again, ref);
}

TEST(BlockApi, ReduceHpRoutesThroughBlockPath) {
  // reduce_hp is the block path's main consumer; its result must equal the
  // scalar loop exactly (this also pins the template overload).
  util::Xoshiro256ss rng(0x5EED);
  std::vector<double> xs(4096);
  for (auto& x : xs) {
    x = std::ldexp(rng.uniform01() - 0.5, static_cast<int>(rng.bounded(40)));
  }
  HpFixed<6, 3> scalar;
  for (const double x : xs) scalar += x;
  const auto reduced = reduce_hp<6, 3>(xs);
  EXPECT_EQ(scalar, reduced);
  EXPECT_EQ(scalar.status(), reduced.status());
}

// ---------------------------------------------------------------------------
// The SIMD deposit path, tested at kernel level: kernel::simd::accumulate
// (whatever level the build dispatches — avx2 or the off-level scalar
// loop) against the per-element kernel::block_add reference, from
// the same starting limbs, sharing bound/pending/planes across arbitrary
// span splits. The batch gate is exact, so the whole block state — limbs,
// planes, bound_exp and pending — must match before the final flush, and
// limbs and sticky status must match bit for bit after it.
// ---------------------------------------------------------------------------

/// Differential: simd::accumulate over `xs` — split into subspans at
/// `splits` (sizes deliberately not multiples of the batch width, modelling
/// the dot/asum chunk staging's partial final chunk) — vs the scalar
/// block_add loop. Both sides start from `start` with `pending0` deferred
/// (empty) deposits, so the budget's pending cap is reachable directly.
/// Returns the shared pre-flush pending count; one flush at the end of
/// each side.
int expect_simd_matches_block_add(const HpConfig& cfg,
                                  const std::vector<Limb>& start,
                                  const std::vector<double>& xs,
                                  const std::vector<std::size_t>& splits,
                                  int pending0 = 0) {
  const auto np = static_cast<std::size_t>(cfg.n) + 1;
  // Scalar reference: per-element block_add.
  std::vector<Limb> scalar = start;
  std::vector<kernel::U128> spos(np, 0);
  std::vector<kernel::U128> sneg(np, 0);
  int sbound = kernel::block_bound_exp(scalar.data(), cfg.n);
  int spend = pending0;
  HpStatus sst = HpStatus::kOk;
  for (const double x : xs) {
    sst |= kernel::block_add(scalar.data(), spos.data(), sneg.data(), cfg.n,
                             cfg.k, sbound, spend, x);
  }
  // SIMD path: subspans share accumulator state.
  std::vector<Limb> simd = start;
  std::vector<kernel::U128> vpos(np, 0);
  std::vector<kernel::U128> vneg(np, 0);
  int vbound = kernel::block_bound_exp(simd.data(), cfg.n);
  int vpend = pending0;
  HpStatus vst = HpStatus::kOk;
  const std::span<const double> all(xs.data(), xs.size());
  std::size_t at = 0;
  for (const std::size_t len : splits) {
    vst |= kernel::simd::accumulate(simd.data(), vpos.data(), vneg.data(),
                                    cfg.n, cfg.k, vbound, vpend,
                                    all.subspan(at, len));
    at += len;
  }
  vst |= kernel::simd::accumulate(simd.data(), vpos.data(), vneg.data(),
                                  cfg.n, cfg.k, vbound, vpend,
                                  all.subspan(at));
  const char* level = kernel::simd::level_name(kernel::simd::active_level());
  // The gate is exact: SIMD flushes and defers at the scalar loop's points,
  // so the deferred state itself is identical, not just its flushed value.
  EXPECT_EQ(sbound, vbound) << "bound_exp mismatch: n=" << cfg.n
                            << " k=" << cfg.k << " level=" << level;
  EXPECT_EQ(spend, vpend) << "pending mismatch: n=" << cfg.n << " k=" << cfg.k
                          << " level=" << level;
  EXPECT_EQ(scalar, simd) << "pre-flush limb mismatch: n=" << cfg.n
                          << " k=" << cfg.k << " level=" << level;
  EXPECT_TRUE(spos == vpos) << "pos plane mismatch: n=" << cfg.n
                            << " k=" << cfg.k << " level=" << level;
  EXPECT_TRUE(sneg == vneg) << "neg plane mismatch: n=" << cfg.n
                            << " k=" << cfg.k << " level=" << level;
  const int pending = spend;
  kernel::block_flush(scalar.data(), spos.data(), sneg.data(), cfg.n, sbound,
                      spend);
  kernel::block_flush(simd.data(), vpos.data(), vneg.data(), cfg.n, vbound,
                      vpend);
  EXPECT_EQ(scalar, simd) << "simd limb mismatch: n=" << cfg.n
                          << " k=" << cfg.k << " len=" << xs.size()
                          << " level=" << level;
  EXPECT_EQ(sst, vst) << "simd status mismatch: n=" << cfg.n << " k=" << cfg.k
                      << " scalar=" << to_string(sst)
                      << " simd=" << to_string(vst);
  return pending;
}

TEST(BlockSimd, DifferentialFuzzAllSmallFormats) {
  util::Xoshiro256ss rng(0x51D0F422ull);
  for (int n = 1; n <= 16; ++n) {
    for (int k = 0; k <= n; ++k) {
      const HpConfig cfg{n, k};
      for (int trial = 0; trial < 12; ++trial) {
        const auto start = adversarial_acc(rng, cfg);
        // Lengths that cover empty, sub-batch, and multi-batch spans.
        std::vector<double> xs(rng.bounded(50));
        for (auto& x : xs) x = adversarial_double(rng, cfg);
        expect_simd_matches_block_add(cfg, start, xs, {});
        if (HasFailure()) return;
      }
    }
  }
}

TEST(BlockSimd, DenormalAndSignedZeroRuns) {
  // Whole batches of slow lanes: denormals (be = 0, outside the fast
  // window) and +-0.0 runs must punt every batch to the scalar kernel and
  // still match it exactly — including the kInexact from sub-lsb denormals.
  const HpConfig cfg{6, 3};
  const std::vector<Limb> start(6, 0);
  std::vector<double> xs;
  util::Xoshiro256ss rng(0xDE404);
  for (int i = 0; i < 64; ++i) {
    xs.push_back(std::bit_cast<double>(
        (static_cast<std::uint64_t>(i & 1) << 63) | (rng.next() >> 12)));
  }
  for (int i = 0; i < 32; ++i) xs.push_back((i & 1) != 0 ? -0.0 : 0.0);
  // A mixed tail: fast lanes interleaved with slow ones inside one batch.
  for (int i = 0; i < 40; ++i) {
    xs.push_back((i % 3 == 0) ? 0.0 : std::ldexp(1.0 + rng.uniform01(), -8));
  }
  expect_simd_matches_block_add(cfg, start, xs, {});
}

TEST(BlockSimd, PartialFinalChunksAcrossCalls) {
  // The chunk-staging regression (dot_hp / rblas::asum stage 256-element
  // chunks and flush a partial final chunk): splitting one stream into
  // subspans whose sizes are NOT multiples of the batch width — including
  // size-1 and size-17 fragments — must leave limbs and status identical
  // to the unsplit scalar loop, because bound/pending persist across calls
  // and the tail elements go through the scalar kernel.
  util::Xoshiro256ss rng(0xC4A1B5ull);
  const HpConfig cfg{6, 3};
  const std::vector<Limb> start(6, 0);
  std::vector<double> xs(256 + 103);  // one full staging chunk + a partial
  for (auto& x : xs) x = adversarial_double(rng, cfg);
  expect_simd_matches_block_add(cfg, start, xs, {256});        // staged split
  expect_simd_matches_block_add(cfg, start, xs, {1, 17, 3});   // ragged splits
  expect_simd_matches_block_add(cfg, start, xs, {7, 9, 11, 13, 2});
  for (std::size_t len = 0; len <= 17; ++len) {  // every sub-batch tail size
    expect_simd_matches_block_add(
        cfg, start, std::vector<double>(xs.begin(), xs.begin() + len), {});
    if (HasFailure()) return;
  }
}

TEST(BlockSimd, UniformAndStraddlingBatches) {
  const HpConfig cfg{6, 3};
  const std::vector<Limb> start(6, 0);
  // Uniform batch: all eight lanes land in the same limb pair.
  std::vector<double> uniform(16, 1.5);
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    uniform[i] = ((i & 1) != 0 ? -1.0 : 1.0) * (1.0 + 0.125 * double(i));
  }
  expect_simd_matches_block_add(cfg, start, uniform, {});
  // Straddling batch: lanes alternate across limb seams (exponents 64 apart)
  // so the per-lane deposit path runs.
  std::vector<double> straddle;
  for (int i = 0; i < 24; ++i) {
    straddle.push_back(std::ldexp((i % 2 != 0) ? -1.0 : 1.0, (i % 3) * 64));
  }
  expect_simd_matches_block_add(cfg, start, straddle, {});
  // Budget-pressure batch: a nearly-full accumulator (bound 64n-1) leaves
  // no room for even one deferred deposit, so the batch gate fails and the
  // whole batch punts.
  std::vector<Limb> nearly_full(6, 0);
  nearly_full[0] = ~Limb{0} >> 1;
  for (std::size_t i = 1; i < nearly_full.size(); ++i) {
    nearly_full[i] = ~Limb{0};
  }
  expect_simd_matches_block_add(cfg, nearly_full,
                                std::vector<double>(16, 1.0), {});
}

// ---------------------------------------------------------------------------
// The deferral budget: a deposit defers iff
// bound + bit_width(pending) <= 64n-1 and pending <= kBlockMaxPending, with
// bound the max of the flushed value's bound and every deferred msb+1.
// Directed at the raw kernel API, scalar and SIMD side by side.
// ---------------------------------------------------------------------------

/// Sticky status of the element-at-a-time scatter loop from `start`.
HpStatus scalar_status(const HpConfig& cfg, std::vector<Limb> start,
                       const std::vector<double>& xs) {
  HpStatus st = HpStatus::kOk;
  for (const double x : xs) {
    st |= detail::scatter_add_double(start.data(), cfg.n, cfg.k, x);
  }
  return st;
}

TEST(BlockBudget, PendingCapFlushesMidBatch) {
  // `pending` seeded three below the cap: the scalar loop defers three
  // more deposits, flushes on the fourth (its scatter fallback), then
  // defers the last four. The SIMD gate sees pend + 8 over the cap and
  // must punt to the same points.
  const HpConfig cfg{6, 3};
  const std::vector<Limb> start(6, 0);
  std::vector<double> batch(8);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = ((i & 1) != 0 ? -1.0 : 1.0) * (1.0 + 0.125 * double(i));
  }
  EXPECT_EQ(expect_simd_matches_block_add(cfg, start, batch, {},
                                          kernel::kBlockMaxPending - 3),
            4);
  // Landing exactly on the cap is still within budget: the batch defers
  // whole, with no flush.
  EXPECT_EQ(expect_simd_matches_block_add(cfg, start, batch, {},
                                          kernel::kBlockMaxPending - 8),
            kernel::kBlockMaxPending);
}

TEST(BlockBudget, BitWidthStepCrossesRangeMidBatch) {
  // HP(2,0) ends at bit 127. A start value of 2^124 (bound 125) leaves
  // room for bit_width(pending) <= 2: three deferred deposits of 2^100.
  // The fourth steps bit_width to 3 and must flush and take the scalar
  // fallback, mid-batch, on both paths — a cadence of four, where the old
  // one-bit-per-deposit bound flushed every third deposit.
  const HpConfig cfg{2, 0};
  const std::vector<Limb> start{Limb{1} << 60, 0};
  std::vector<double> xs(16);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = (i % 3 == 1) ? -0x1p100 : 0x1p100 * (1.0 + 0.5 * double(i & 1));
  }
  EXPECT_EQ(expect_simd_matches_block_add(cfg, start, xs, {}), 0);
  EXPECT_EQ(expect_simd_matches_block_add(
                cfg, start, std::vector<double>(xs.begin(), xs.begin() + 14),
                {}),
            2);
  expect_block_matches(cfg, start, xs);
}

TEST(BlockBudget, AddOverflowMidBatchMatchesScalar) {
  // Deposits of 2^125 onto 3 * 2^124 in HP(2,0): the first defers, the
  // second exhausts the budget (126 + bit_width(2) > 127) and falls back,
  // and the third carries the value past 2^127: kAddOverflow in
  // mid-batch. A budget one bit too loose would defer that third deposit
  // and lose the flag. Both signs, on the scalar kernel and the SIMD path.
  const HpConfig cfg{2, 0};
  for (const double sign : {1.0, -1.0}) {
    std::vector<Limb> start{Limb{3} << 60, 0};
    if (sign < 0) {
      ASSERT_EQ(kernel::negate(start.data(), cfg.n), HpStatus::kOk);
    }
    const std::vector<double> xs(8, sign * 0x1p125);
    ASSERT_TRUE(has(scalar_status(cfg, start, xs), HpStatus::kAddOverflow));
    expect_simd_matches_block_add(cfg, start, xs, {});
    expect_block_matches(cfg, start, xs);
  }
}

TEST(BlockBudget, OneFlushPerSpanOnPaperWorkloads) {
  // The budget's headline: on the paper's two data sets HP(6,3) never runs
  // short of range, so a whole 1M-summand span is one flush (at limbs())
  // and every summand takes the chunk deposit: the span is a whole number
  // of blocks, and every block passes the gate.
  for (const bool wide : {true, false}) {
    const std::vector<double> xs =
        wide ? workload::wide_range_set(1 << 20, 1, -120, 100)
             : workload::uniform_set(1 << 20, 1);
    const trace::Snapshot before = trace::snapshot();
    BlockAccumulator<6, 3> blk;
    blk.accumulate(std::span<const double>(xs.data(), xs.size()));
    const HpFixed<6, 3> blocked(blk);
    const trace::Snapshot delta = trace::snapshot().delta_since(before);
    if constexpr (trace::enabled()) {
      EXPECT_EQ(delta.value(trace::Counter::kBlockNormalizes), 1u)
          << (wide ? "wide" : "uniform");
      EXPECT_EQ(delta.value(trace::Counter::kBlockSimdPunts), 0u)
          << (wide ? "wide" : "uniform");
      EXPECT_EQ(delta.value(trace::Counter::kBlockChunkDeposits), xs.size())
          << (wide ? "wide" : "uniform");
    }
    HpFixed<6, 3> scalar;
    for (const double x : xs) scalar += x;
    EXPECT_EQ(scalar, blocked);
    EXPECT_EQ(scalar.status(), blocked.status());
  }
}

// ---------------------------------------------------------------------------
// The exponent-indexed chunk deposit (kernel::chunk_accumulate), which is
// block_accumulate's runtime body for spans of kChunkMinSpan or more. A
// committed block folds pre-summed chunks, so plane slot contents may
// differ from element-wise block_add's; flushed limbs, sticky status,
// bound_exp and pending may not.
// ---------------------------------------------------------------------------

using SpanFn = HpStatus (*)(Limb*, kernel::U128*, kernel::U128*, int, int,
                            int&, int&, std::span<const double>);

/// Differential: `deposit` over `xs` (in subspans of `splits`, then the
/// rest) vs per-element block_add, both from `start` with `pending0`
/// (empty) deferred deposits. Returns the chunk-path deposit count the
/// dispatch recorded (0 when tracing is compiled out).
std::uint64_t expect_span_matches_block_add(
    const HpConfig& cfg, const std::vector<Limb>& start,
    const std::vector<double>& xs, int pending0 = 0,
    const std::vector<std::size_t>& splits = {},
    SpanFn deposit = &kernel::block_accumulate) {
  const auto np = static_cast<std::size_t>(cfg.n) + 1;
  std::vector<Limb> ref = start;
  std::vector<kernel::U128> rpos(np, 0);
  std::vector<kernel::U128> rneg(np, 0);
  int rbound = kernel::block_bound_exp(ref.data(), cfg.n);
  int rpend = pending0;
  HpStatus rst = HpStatus::kOk;
  for (const double x : xs) {
    rst |= kernel::block_add(ref.data(), rpos.data(), rneg.data(), cfg.n,
                             cfg.k, rbound, rpend, x);
  }
  std::vector<Limb> got = start;
  std::vector<kernel::U128> gpos(np, 0);
  std::vector<kernel::U128> gneg(np, 0);
  int gbound = kernel::block_bound_exp(got.data(), cfg.n);
  int gpend = pending0;
  HpStatus gst = HpStatus::kOk;
  const trace::Snapshot before = trace::snapshot();
  const std::span<const double> all(xs.data(), xs.size());
  std::size_t at = 0;
  for (const std::size_t len : splits) {
    gst |= deposit(got.data(), gpos.data(), gneg.data(), cfg.n, cfg.k, gbound,
                   gpend, all.subspan(at, len));
    at += len;
  }
  gst |= deposit(got.data(), gpos.data(), gneg.data(), cfg.n, cfg.k, gbound,
                 gpend, all.subspan(at));
  const std::uint64_t chunked = trace::snapshot().delta_since(before).value(
      trace::Counter::kBlockChunkDeposits);
  EXPECT_EQ(rbound, gbound) << "bound_exp mismatch: n=" << cfg.n
                            << " k=" << cfg.k << " len=" << xs.size();
  EXPECT_EQ(rpend, gpend) << "pending mismatch: n=" << cfg.n << " k=" << cfg.k
                          << " len=" << xs.size();
  kernel::block_flush(ref.data(), rpos.data(), rneg.data(), cfg.n, rbound,
                      rpend);
  kernel::block_flush(got.data(), gpos.data(), gneg.data(), cfg.n, gbound,
                      gpend);
  EXPECT_EQ(ref, got) << "flushed limb mismatch: n=" << cfg.n
                      << " k=" << cfg.k << " len=" << xs.size();
  EXPECT_EQ(rst, gst) << "status mismatch: n=" << cfg.n << " k=" << cfg.k
                      << " len=" << xs.size() << " block_add="
                      << to_string(rst) << " span=" << to_string(gst);
  return chunked;
}

/// A value whose every bit lands inside `cfg` with room to spare: normal,
/// lsb at or above 2^-64k, msb at least a limb below the sign bit (and
/// inside the double range for the widest formats).
double clean_double(util::Xoshiro256ss& rng, const HpConfig& cfg) {
  const int lo = std::max(min_exponent(cfg) + 52, -1000);
  const int hi = std::min(max_exponent(cfg) - 64, 1000);
  const int e = hi <= lo ? lo
                         : lo + static_cast<int>(rng.bounded(
                                    static_cast<std::uint64_t>(hi - lo)));
  const double v = std::ldexp(1.0 + rng.uniform01(), e);
  return (rng.next() & 1) != 0 ? -v : v;
}

std::vector<double> clean_stream(util::Xoshiro256ss& rng, const HpConfig& cfg,
                                 std::size_t len) {
  std::vector<double> xs(len);
  for (auto& x : xs) x = clean_double(rng, cfg);
  return xs;
}

/// Summands block_accumulate sends to the chunk deposit for one span:
/// everything but a final partial block shorter than kChunkMinSpan.
std::uint64_t chunked_share(std::size_t len) {
  const std::size_t rem = len % kernel::kChunkBlock;
  return len - (rem < kernel::kChunkMinSpan ? rem : 0);
}

TEST(ChunkDeposit, BlockAndMinSpanBoundaryLengths) {
  util::Xoshiro256ss rng(0xC4C4);
  const HpConfig cfg{6, 3};
  const std::vector<Limb> start(6, 0);
  for (const std::size_t len :
       {std::size_t{2047}, std::size_t{2048}, std::size_t{2049},
        3 * kernel::kChunkBlock + 5, kernel::kChunkMinSpan - 1,
        kernel::kChunkMinSpan, kernel::kChunkMinSpan + 1}) {
    const auto xs = clean_stream(rng, cfg, len);
    const std::uint64_t chunked = expect_span_matches_block_add(cfg, start, xs);
    if constexpr (trace::enabled()) {
      EXPECT_EQ(chunked, chunked_share(len)) << "len=" << len;
    }
    // The chunk deposit alone, at every length (no span policy).
    expect_span_matches_block_add(cfg, start, xs, 0, {},
                                  &kernel::chunk_accumulate);
    if (HasFailure()) return;
  }
}

TEST(ChunkDeposit, WorstCaseBlockFillsAChunkToTheBound) {
  // A block of kChunkBlock summands with the largest significand,
  // 2^53 - 1, and one sign and exponent: their chunk reaches
  // kChunkBlock * (2^53 - 1) = 2^64 - 2048, the largest word a fold ever
  // sees. The shifts put the chunk's lsb at offsets 0, 1, 12 and 63 of
  // its limb window in HP(6,3) (lsb position shift + 140), so the shifted
  // sum also straddles a seam.
  const HpConfig cfg{6, 3};
  const std::vector<Limb> zero(6, 0);
  const double max_significand = 2.0 - 0x1p-52;
  for (const int shift : {-12, -11, 0, 51}) {
    for (const double sign : {1.0, -1.0}) {
      const std::vector<double> xs(kernel::kChunkBlock,
                                   sign * std::ldexp(max_significand, shift));
      const std::uint64_t chunked = expect_span_matches_block_add(
          cfg, zero, xs, 0, {}, &kernel::chunk_accumulate);
      if constexpr (trace::enabled()) {
        EXPECT_EQ(chunked, xs.size()) << "shift=" << shift;
      }
      // Two full blocks through the dispatched path: the second fold
      // lands on planes the first already filled.
      std::vector<double> two = xs;
      two.insert(two.end(), xs.begin(), xs.end());
      expect_span_matches_block_add(cfg, zero, two);
      if (HasFailure()) return;
    }
  }
}

TEST(ChunkDeposit, LengthsAroundThePrefetchEdge) {
  // Odd lengths, including spans that stop prefetching mid-block and
  // mid-line (kChunkPrefetch + 3, 2 * kChunkBlock + kChunkPrefetch + 5)
  // and spans no longer than the prefetch distance, which issue none.
  util::Xoshiro256ss rng(0x0DD5);
  const HpConfig cfg{6, 3};
  std::vector<Limb> start(6, 0);
  for (auto& l : start) l = rng.next();
  start[0] >>= 40;  // far enough below the top for every block to commit
  for (const std::size_t len :
       {std::size_t{1}, std::size_t{3}, kernel::kChunkMinSpan - 1,
        kernel::kChunkMinSpan + 1, kernel::kChunkPrefetch - 1,
        kernel::kChunkPrefetch + 3, std::size_t{2047}, std::size_t{2049},
        std::size_t{4097},
        2 * kernel::kChunkBlock + kernel::kChunkPrefetch + 5}) {
    const auto xs = clean_stream(rng, cfg, len);
    const std::uint64_t chunked = expect_span_matches_block_add(
        cfg, start, xs, 0, {}, &kernel::chunk_accumulate);
    const std::uint64_t dispatched =
        expect_span_matches_block_add(cfg, start, xs);
    if constexpr (trace::enabled()) {
      EXPECT_EQ(chunked, len) << "len=" << len;
      EXPECT_EQ(dispatched, chunked_share(len)) << "len=" << len;
    }
    if (HasFailure()) return;
  }
}

/// kernel::chunk::deposit at another point of ablate_block's prefetch
/// sweep, over its own scratch.
template <std::size_t kAhead>
HpStatus chunk_variant(Limb* a, kernel::U128* pos, kernel::U128* neg, int n,
                       int k, int& bound, int& pending,
                       std::span<const double> xs) {
  static std::vector<std::uint64_t> scratch(kernel::chunk::kCount, 0);
  return kernel::chunk::deposit<kAhead>(scratch.data(), a, pos, neg, n, k,
                                        bound, pending, xs);
}

TEST(ChunkDeposit, SweepVariantsMatchBlockAdd) {
  // The deposit bodies ablate_block times against the shipped distance:
  // no prefetch, a shorter and a longer one. Each must be the same
  // deposit, or the sweep would time a wrong kernel.
  util::Xoshiro256ss rng(0x5EE9);
  const HpConfig cfg{6, 3};
  const std::vector<Limb> zero(6, 0);
  auto xs = clean_stream(rng, cfg, 3 * kernel::kChunkBlock + 7);
  xs[kernel::kChunkBlock + 3] = std::numeric_limits<double>::quiet_NaN();
  for (const SpanFn deposit :
       {&chunk_variant<0>, &chunk_variant<256>, &chunk_variant<4096>}) {
    expect_span_matches_block_add(cfg, zero, xs, 0, {}, deposit);
    expect_span_matches_block_add(cfg, zero, xs, 0, {5, 2048, 1000},
                                  deposit);
    if (HasFailure()) return;
  }
}

TEST(ChunkDeposit, OneSlowLaneRollsBackItsBlockOnly) {
  const HpConfig cfg{6, 3};
  const std::vector<Limb> start(6, 0);
  const int top = max_exponent(cfg);  // the sign bit's weight is 2^(top+1)
  struct Slow {
    double x;
    bool spends_budget;  ///< lands at bit 64n-2: no later block fits
  };
  const Slow slow[] = {
      {0.0, false},
      {-0.0, false},
      {std::bit_cast<double>(std::uint64_t{0x000F'1234'5678'9ABC}), false},
      {std::numeric_limits<double>::quiet_NaN(), false},
      {std::numeric_limits<double>::infinity(), false},
      {-std::numeric_limits<double>::infinity(), false},
      {std::ldexp(1.0 + 0x1p-52, min_exponent(cfg) + 10), false},  // sub-lsb
      {std::ldexp(1.5, top - 1), true},                            // 64n-2
      {-std::ldexp(1.5, top), false},                              // 64n-1
  };
  util::Xoshiro256ss rng(0x510E);
  for (const Slow& bad : slow) {
    for (const std::size_t at :
         {std::size_t{0}, kernel::kChunkBlock / 2, kernel::kChunkBlock - 1}) {
      auto xs = clean_stream(rng, cfg, 3 * kernel::kChunkBlock);
      xs[at] = bad.x;
      const std::uint64_t chunked =
          expect_span_matches_block_add(cfg, start, xs);
      if constexpr (trace::enabled()) {
        // The first block replays element-wise and the clean blocks after
        // it commit, unless the slow lane left the value at the top of the
        // range, where no whole block fits the budget.
        EXPECT_EQ(chunked, bad.spends_budget ? 0 : 2 * kernel::kChunkBlock)
            << "slow=" << bad.x << " at " << at;
      }
      if (HasFailure()) return;
    }
  }
}

TEST(ChunkDeposit, NearMaxStartFailsTheGateAndReplaysTheFallback) {
  // Start just below 2^(64n-2): no whole block of 2^(64n-4)-sized
  // summands fits the budget, so every block rolls back, and block_add
  // defers one, then flushes and takes the scatter fallback on the second
  // — which carries the value past the top (kAddOverflow).
  const HpConfig cfg{6, 3};
  std::vector<Limb> start(6, ~Limb{0});
  start[0] = ~Limb{0} >> 2;
  util::Xoshiro256ss rng(0xF00F);
  std::vector<double> xs(2 * kernel::kChunkBlock);
  for (auto& x : xs) {
    x = std::ldexp(1.0 + rng.uniform01(), max_exponent(cfg) - 3);
  }
  const trace::Snapshot before = trace::snapshot();
  EXPECT_EQ(expect_span_matches_block_add(cfg, start, xs), 0u);
  const trace::Snapshot delta = trace::snapshot().delta_since(before);
  if constexpr (trace::enabled()) {
    EXPECT_GT(delta.value(trace::Counter::kBlockScalarFallbacks), 0u);
  }
  EXPECT_TRUE(has(scalar_status(cfg, start, xs), HpStatus::kAddOverflow));
  // The negative direction, from the most negative side.
  for (auto& x : xs) x = -x;
  std::vector<Limb> low = start;
  ASSERT_EQ(kernel::negate(low.data(), cfg.n), HpStatus::kOk);
  expect_span_matches_block_add(cfg, low, xs);
}

TEST(ChunkDeposit, PaperFormatsAndFullRange) {
  util::Xoshiro256ss rng(0xF0F0);
  for (const HpConfig cfg : {HpConfig{1, 0}, HpConfig{2, 1}, HpConfig{6, 3},
                             HpConfig{8, 4}, kFullRange}) {
    const std::vector<Limb> zero(static_cast<std::size_t>(cfg.n), 0);
    // Clean: every block commits where the budget allows it.
    expect_span_matches_block_add(cfg, zero,
                                  clean_stream(rng, cfg, 2 * 2048 + 700));
    // Sparse adversarial summands: some blocks roll back, most commit.
    auto xs = clean_stream(rng, cfg, 4 * 2048 + 3);
    for (std::size_t i = 0; i < xs.size(); i += 1 + rng.bounded(3000)) {
      if (cfg.n <= 16) {
        xs[i] = adversarial_double(rng, cfg);
      } else {  // the full range's slow doubles: subnormal, zero, non-finite
        const double full_range_slow[] = {
            3 * std::numeric_limits<double>::denorm_min(), -0.0,
            std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
        xs[i] = full_range_slow[rng.bounded(5)];
      }
    }
    expect_span_matches_block_add(cfg, adversarial_acc(rng, cfg), xs);
    expect_span_matches_block_add(cfg, zero, xs, 0, {1000, 2048, 1});
    // Non-finite summands in otherwise clean blocks. In the widest
    // formats the budget alone would pass a NaN's exponent; the window
    // test must reject it.
    auto nonfinite = clean_stream(rng, cfg, 3 * 2048);
    nonfinite[1000] = std::numeric_limits<double>::quiet_NaN();
    nonfinite[2048 + 5] = -std::numeric_limits<double>::infinity();
    nonfinite[2 * 2048 + 2047] = std::numeric_limits<double>::infinity();
    expect_span_matches_block_add(cfg, zero, nonfinite);
    if (HasFailure()) return;
  }
}

TEST(ChunkDeposit, NonzeroStartAndPendingCarriedIn) {
  util::Xoshiro256ss rng(0x9E9E);
  const HpConfig cfg{6, 3};
  std::vector<Limb> start(6, 0);
  for (auto& l : start) l = rng.next() >> 8;
  const auto xs = clean_stream(rng, cfg, 2 * 2048 + 600);
  expect_span_matches_block_add(cfg, start, xs, 5);
  // Near the pending cap: the second block's gate sees the cap.
  expect_span_matches_block_add(cfg, start, xs,
                                kernel::kBlockMaxPending - 3000);
  // The value-type route: add() defers, then accumulate() continues from
  // the same bound and pending.
  HpFixed<6, 3> scalar(-12.5);
  BlockAccumulator<6, 3> blk(scalar.limbs());
  for (const double x : {1.5, -0.75, 3e10}) {
    scalar += x;
    blk.add(x);
  }
  for (const double x : xs) scalar += x;
  blk.accumulate(std::span<const double>(xs.data(), xs.size()));
  const HpFixed<6, 3> blocked(blk);
  EXPECT_EQ(scalar, blocked);
  EXPECT_EQ(scalar.status(), blocked.status());
}

TEST(ChunkDeposit, RolledBackSpanLeavesTheScratchZeroed) {
  // A span whose every block rolls back (a NaN at each block's end, after
  // the clean summands have been chunked), then a clean span in another
  // format over the same exponents: any chunk left behind by the rollback
  // would land in the second span's limbs.
  util::Xoshiro256ss rng(0x2E20);
  const HpConfig first{6, 3};
  const HpConfig second{2, 1};
  auto xs = clean_stream(rng, second, 2 * kernel::kChunkBlock);
  xs[kernel::kChunkBlock - 1] = std::numeric_limits<double>::quiet_NaN();
  xs.back() = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(expect_span_matches_block_add(
                first, std::vector<Limb>(6, 0), xs),
            0u);
  const auto clean = clean_stream(rng, second, 2 * kernel::kChunkBlock);
  const std::uint64_t chunked =
      expect_span_matches_block_add(second, std::vector<Limb>(2, 0), clean);
  if constexpr (trace::enabled()) {
    EXPECT_EQ(chunked, clean.size());
  }
}

TEST(BlockSimd, DispatchLevelIsCoherent) {
  const auto level = kernel::simd::active_level();
#if HPSUM_SIMD_DISPATCH
  // A dispatching build takes the AVX2 lanes exactly when the CPU has them.
  __builtin_cpu_init();
  EXPECT_EQ(level, __builtin_cpu_supports("avx2")
                       ? kernel::simd::Level::kAvx2
                       : kernel::simd::Level::kOff);
#else
  // HPSUM_SIMD=OFF pins the off level: block_accumulate never leaves the
  // scalar loop, and direct simd::accumulate calls take the scalar branch.
  EXPECT_EQ(level, kernel::simd::Level::kOff);
#endif
  EXPECT_STRNE(kernel::simd::level_name(level), "unknown");
}

// ---------------------------------------------------------------------------
// Compile-time proofs: the block path is constexpr end to end, and its
// bit-identity to the scalar kernel holds inside a constant expression —
// the strongest "no UB, no library call, same bits" statement the type
// system can make. These same proofs also pin the dispatch guard:
// block_accumulate consults std::is_constant_evaluated before calling its
// (non-constexpr) runtime bodies, chunk_accumulate and simd::accumulate,
// so a constant expression takes the scalar loop — if the guard ever
// broke, every static_assert below would fail to compile.
// ---------------------------------------------------------------------------

constexpr bool block_matches_scalar_at_compile_time() {
  constexpr double xs[] = {1.5, -0.25, 1024.0, -3.75, 0.0, 1e-3};
  BlockAccumulator<4, 2> blk;
  blk.accumulate(std::span<const double>(xs, 6));
  Limb scalar[4] = {};
  HpStatus st = HpStatus::kOk;
  for (const double x : xs) {
    st |= detail::scatter_add_double(scalar, 4, 2, x);
  }
  const auto limbs = blk.limbs();
  for (int i = 0; i < 4; ++i) {
    if (limbs[static_cast<std::size_t>(i)] != scalar[i]) return false;
  }
  return blk.status() == st;
}
static_assert(block_matches_scalar_at_compile_time(),
              "block path must be bit-identical to the scalar loop");

constexpr bool block_fallback_matches_scalar_at_compile_time() {
  // 2^62 deposits into (2,0) walk to the top of the range: the block path
  // crosses its bound mid-stream and must fall back with identical flags.
  constexpr double big = 0x1p62;
  constexpr double xs[] = {big, big, big, 1.0};
  BlockAccumulator<2, 0> blk;
  blk.accumulate(std::span<const double>(xs, 4));
  Limb scalar[2] = {};
  HpStatus st = HpStatus::kOk;
  for (const double x : xs) {
    st |= detail::scatter_add_double(scalar, 2, 0, x);
  }
  const auto limbs = blk.limbs();
  return limbs[0] == scalar[0] && limbs[1] == scalar[1] &&
         blk.status() == st;
}
static_assert(block_fallback_matches_scalar_at_compile_time(),
              "mid-block overflow must take the scalar fallback bit-exactly");

constexpr bool block_sticky_inexact_at_compile_time() {
  constexpr double xs[] = {0x1p-200, 1.0};  // sub-lsb for (2,1): kInexact
  BlockAccumulator<2, 1> blk;
  blk.accumulate(std::span<const double>(xs, 2));
  return has(blk.status(), HpStatus::kInexact);
}
static_assert(block_sticky_inexact_at_compile_time(),
              "conversion flags must stay sticky across block deposits");

constexpr bool block_multibatch_constexpr_dispatch() {
  // 20 elements: at runtime this span would cover two full SIMD batches
  // plus a tail, so this proof specifically pins the is_constant_evaluated
  // guard in block_accumulate — in a constant expression the whole span
  // must flow through the scalar loop and still match it.
  double xs[20] = {};
  for (int i = 0; i < 20; ++i) {
    xs[i] = (i % 2 != 0 ? -1.0 : 1.0) * (1.0 + 0.25 * i);
  }
  BlockAccumulator<6, 3> blk;
  blk.accumulate(std::span<const double>(xs, 20));
  Limb scalar[6] = {};
  HpStatus st = HpStatus::kOk;
  for (const double x : xs) {
    st |= detail::scatter_add_double(scalar, 6, 3, x);
  }
  const auto limbs = blk.limbs();
  for (int i = 0; i < 6; ++i) {
    if (limbs[static_cast<std::size_t>(i)] != scalar[i]) return false;
  }
  return blk.status() == st;
}
static_assert(block_multibatch_constexpr_dispatch(),
              "block_accumulate must stay constexpr-evaluable (and scalar-"
              "identical) for batch-sized spans under SIMD dispatch");

}  // namespace
}  // namespace hpsum
