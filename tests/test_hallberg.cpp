// Tests for the Hallberg & Adcroft baseline implementation.
#include "hallberg/hallberg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/reduce.hpp"
#include "util/prng.hpp"
#include "workload/workload.hpp"

namespace hpsum {
namespace {

TEST(HallbergParams, SolveRegeneratesTable2) {
  // Paper Table 2: ~512-bit precision at three summand scales.
  const auto p2048 = HallbergParams::solve(512, 2047);
  EXPECT_EQ(p2048, (HallbergParams{10, 52}));
  EXPECT_EQ(p2048.precision_bits(), 520);
  EXPECT_EQ(p2048.max_summands(), 2047u);

  const auto p1m = HallbergParams::solve(512, (1u << 20) - 1);
  EXPECT_EQ(p1m, (HallbergParams{12, 43}));
  EXPECT_EQ(p1m.precision_bits(), 516);

  const auto p64m = HallbergParams::solve(512, (1u << 26) - 1);
  EXPECT_EQ(p64m, (HallbergParams{14, 37}));
  EXPECT_EQ(p64m.precision_bits(), 518);
}

TEST(HallbergParams, SolveRejectsImpossible) {
  EXPECT_THROW(HallbergParams::solve(0, 100), std::invalid_argument);
  EXPECT_THROW(HallbergParams::solve(512, 0), std::invalid_argument);
  // 2^62 summands leave 0 payload bits.
  EXPECT_THROW(HallbergParams::solve(512, std::uint64_t{1} << 62),
               std::invalid_argument);
}

TEST(Hallberg, RejectsBadParams) {
  EXPECT_THROW(Hallberg(HallbergParams{0, 38}), std::invalid_argument);
  EXPECT_THROW(Hallberg(HallbergParams{10, 63}), std::invalid_argument);
  EXPECT_THROW(Hallberg(HallbergParams{40, 62}), std::invalid_argument);
}

TEST(Hallberg, RoundTripSimpleValues) {
  Hallberg acc(HallbergParams{10, 38});
  acc.add(3.25);
  EXPECT_EQ(acc.to_double(), 3.25);
  acc.add(-3.25);
  EXPECT_EQ(acc.to_double(), 0.0);
  acc.add(-7.5);
  EXPECT_EQ(acc.to_double(), -7.5);
}

TEST(Hallberg, CancellationSetSumsToZero) {
  auto xs = workload::cancellation_set(4096, 21);
  workload::shuffle(xs, 9);
  Hallberg acc(HallbergParams{10, 38});
  for (const double x : xs) acc.add(x);
  EXPECT_EQ(acc.to_double(), 0.0);
}

TEST(Hallberg, OrderInvariantAfterNormalization) {
  auto xs = workload::uniform_set(8192, 22);
  Hallberg ref(HallbergParams{10, 38});
  for (const double x : xs) ref.add(x);
  ref.normalize();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    workload::shuffle(xs, seed);
    Hallberg acc(HallbergParams{10, 38});
    for (const double x : xs) acc.add(x);
    acc.normalize();
    EXPECT_EQ(acc.limbs(), ref.limbs()) << "seed " << seed;
  }
}

TEST(Hallberg, AliasingResolvedByNormalize) {
  // Build the same value along two different paths; raw limb images differ
  // (aliasing, §II.B), normalized images must agree.
  const HallbergParams p{6, 40};
  Hallberg a(p);
  a.add(1.0);
  a.add(1.0);

  Hallberg b(p);
  b.add(2.0);

  // The raw images may differ (2 stored as 1+1 in one limb is fine — both
  // land in the same limb here, so force an alias with a carry-range value).
  Hallberg c(p);
  const double just_below = std::ldexp(1.0, 40);  // 2^40 == 2^M for limb i
  c.add(just_below);
  c.add(-1.0);
  Hallberg d(p);
  d.add(just_below - 1.0);
  EXPECT_NE(c.limbs(), d.limbs());  // aliased images...
  c.normalize();
  d.normalize();
  EXPECT_EQ(c.limbs(), d.limbs());  // ...same canonical value
  EXPECT_EQ(a.to_double(), b.to_double());
}

TEST(Hallberg, MergePartialSumsMatchesFlat) {
  const auto xs = workload::uniform_set(10000, 23);
  const HallbergParams p{10, 38};
  Hallberg flat(p);
  for (const double x : xs) flat.add(x);

  Hallberg left(p);
  Hallberg right(p);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i % 2 == 0 ? left : right).add(xs[i]);
  }
  left.add(right);
  left.normalize();
  flat.normalize();
  EXPECT_EQ(left.limbs(), flat.limbs());
}

TEST(Hallberg, MixedParamsMergeThrows) {
  Hallberg a(HallbergParams{10, 38});
  const Hallberg b(HallbergParams{12, 43});
  EXPECT_THROW(a.add(b), std::invalid_argument);
}

TEST(Hallberg, RangeGuardRejectsOutOfRange) {
  Hallberg acc(HallbergParams{4, 20});  // range ±2^40
  EXPECT_FALSE(acc.add(std::ldexp(1.0, 41)));
  EXPECT_FALSE(acc.add(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(acc.add(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(acc.add(std::ldexp(1.0, 39)));
  EXPECT_EQ(acc.to_double(), std::ldexp(1.0, 39));
}

TEST(Hallberg, CheckedAddNormalizesUnderPressure) {
  // M=58 leaves a 5-bit carry buffer (31 safe adds). add_checked must keep
  // the sum correct far beyond that by normalizing on demand.
  const HallbergParams p{4, 58};
  Hallberg acc(p);
  ASSERT_EQ(p.max_summands(), 31u);
  double oracle = 0.0;
  for (int i = 0; i < 4000; ++i) {
    acc.add_checked(0.5);
    oracle += 0.5;
  }
  EXPECT_EQ(acc.to_double(), oracle);
  EXPECT_GT(acc.normalizations(), 0);
}

TEST(Hallberg, UncheckedAddOverflowsWithoutGuard) {
  // The catastrophic-overflow failure mode the paper warns about: exceed
  // max_summands() without normalize() and the sum is silently wrong.
  const HallbergParams p{4, 61};  // 3 safe adds only
  Hallberg acc(p);
  for (int i = 0; i < 100000; ++i) acc.add(0.75);
  EXPECT_NE(acc.to_double(), 0.75 * 100000);
}

TEST(Hallberg, FixedMatchesRuntime) {
  const auto xs = workload::uniform_set(5000, 24);
  HallbergFixed<10, 38> fixed;
  Hallberg runtime(HallbergParams{10, 38});
  for (const double x : xs) {
    fixed.add(x);
    runtime.add(x);
  }
  fixed.normalize();
  runtime.normalize();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fixed.limbs()[static_cast<std::size_t>(i)],
              runtime.limbs()[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(fixed.to_double(), runtime.to_double());
}

TEST(Hallberg, ToHpAgreesWithDirectHpSum) {
  // Converting a Hallberg sum into HP must give the same exact value an HP
  // accumulator computes directly (both are exact on this data).
  const auto xs = workload::uniform_set(4096, 25);
  Hallberg hall(HallbergParams{10, 38});
  for (const double x : xs) hall.add(x);

  const HpConfig cfg{8, 4};
  const HpDyn from_hall = hall.to_hp(cfg);
  HpDyn direct(cfg);
  for (const double x : xs) direct += x;
  EXPECT_EQ(from_hall.limbs().size(), direct.limbs().size());
  for (std::size_t i = 0; i < direct.limbs().size(); ++i) {
    EXPECT_EQ(from_hall.limbs()[i], direct.limbs()[i]) << "limb " << i;
  }
}

TEST(Hallberg, ToHpNegativeValues) {
  Hallberg hall(HallbergParams{10, 38});
  hall.add(-1234.5625);
  const HpDyn hp = hall.to_hp(HpConfig{6, 3});
  EXPECT_EQ(hp.to_double(), -1234.5625);
  EXPECT_EQ(hp.to_decimal_string(), "-1234.5625");
}

TEST(Hallberg, HpVsHallbergSameExactSumOnCancellation) {
  // Both exact methods agree with each other and with zero — the paper's
  // core cross-method claim.
  auto xs = workload::cancellation_set(2048, 26);
  workload::shuffle(xs, 4);
  Hallberg hall(HallbergParams{12, 43});
  HpDyn hp(HpConfig{8, 4});
  for (const double x : xs) {
    hall.add(x);
    hp += x;
  }
  EXPECT_EQ(hall.to_double(), 0.0);
  EXPECT_TRUE(hp.is_zero());
}

TEST(Hallberg, ClearResets) {
  Hallberg acc(HallbergParams{10, 38});
  acc.add_checked(1.0);
  acc.clear();
  EXPECT_EQ(acc.to_double(), 0.0);
  EXPECT_EQ(acc.normalizations(), 0);
}

// --- accumulate(span): the integer-scatter deposit vs the add() loop -------

/// Every edge the branchless scatter must agree with the FP strip loop on,
/// plus random bit patterns (any exponent, NaN payloads, subnormals) and
/// random in-range values.
std::vector<double> scatter_corpus(HallbergParams p, std::uint64_t seed) {
  const double inf = std::numeric_limits<double>::infinity();
  const double rmax = p.range_max();
  const int half = p.n * p.m / 2;
  const double lsb = std::ldexp(1.0, -half);
  std::vector<double> xs = {
      0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
      rmax, -rmax, std::nextafter(rmax, 0.0), -std::nextafter(rmax, 0.0),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),  // smallest normal
      std::nextafter(std::numeric_limits<double>::min(), 0.0),  // largest subnormal
      lsb, -lsb,                   // exactly the lsb weight
      lsb / 2, -lsb / 2,           // entirely below the lsb: truncates to 0
      lsb * 1.5, -lsb * 1.5,       // partly below the lsb
      std::ldexp(1.0 - 0x1p-53, -half + 53),  // 53 bits, lowest exactly at lsb
      std::ldexp(1.0 - 0x1p-53, -half + 20),  // 33 bits above, 20 truncated
  };
  util::Xoshiro256ss rng(seed);
  // Mantissas straddling each limb boundary (limb i weighs 2^(i*M - half)).
  for (int i = 0; i <= p.n; ++i) {
    for (const int d : {-60, -53, -27, -1, 0, 1}) {
      const double v = std::ldexp(1.0 + rng.uniform01(), i * p.m - half + d);
      if (std::isfinite(v)) {
        xs.push_back(v);
        xs.push_back(-v);
      }
    }
  }
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(std::bit_cast<double>(rng.next()));
    const int e = static_cast<int>(rng.bounded(
                      static_cast<std::uint64_t>(2 * half + 80))) -
                  half - 80;
    xs.push_back(std::ldexp(rng.uniform01() - 0.5, e + 1));
  }
  return xs;
}

/// The scalar oracle: the paper's add() loop, counting rejections.
template <class Acc>
std::size_t add_loop(Acc& acc, std::span<const double> xs) {
  std::size_t rejected = 0;
  for (const double x : xs) rejected += acc.add(x) ? 0 : 1;
  return rejected;
}

template <int N, int M>
void expect_fixed_span_matches_add(std::uint64_t seed) {
  SCOPED_TRACE("HallbergFixed<" + std::to_string(N) + "," + std::to_string(M) +
               ">");
  const auto xs = scatter_corpus(HallbergFixed<N, M>::params(), seed);
  HallbergFixed<N, M> ref;
  const std::size_t rejected = add_loop(ref, xs);
  EXPECT_GT(rejected, 0u);  // the corpus does exercise the range check
  HallbergFixed<N, M> got;
  EXPECT_EQ(got.accumulate(xs), rejected);
  EXPECT_EQ(got.limbs(), ref.limbs());
  // One value at a time, so a mismatch names its summand.
  for (const double x : xs) {
    HallbergFixed<N, M> a;
    HallbergFixed<N, M> b;
    ASSERT_EQ(a.add(x) ? 0u : 1u, b.accumulate(std::span(&x, 1))) << x;
    ASSERT_EQ(a.limbs(), b.limbs()) << x;
  }
}

TEST(HallbergSpan, FixedMatchesAddLoop) {
  expect_fixed_span_matches_add<10, 52>(1);  // Table 2 formats
  expect_fixed_span_matches_add<12, 43>(2);
  expect_fixed_span_matches_add<14, 37>(3);
  expect_fixed_span_matches_add<10, 38>(4);  // the benchmark format
  expect_fixed_span_matches_add<32, 1>(5);   // 53 slices per summand
  expect_fixed_span_matches_add<20, 13>(6);
  expect_fixed_span_matches_add<12, 25>(10);  // 4 slices: still the scatter
  expect_fixed_span_matches_add<12, 26>(7);  // M divides 52; 3 slices
  expect_fixed_span_matches_add<11, 27>(8);  // odd N*M
  expect_fixed_span_matches_add<30, 62>(9);  // widest payload, 1 safe add
}

TEST(HallbergSpan, RuntimeMatchesAddLoop) {
  for (const HallbergParams p :
       {HallbergParams{10, 52}, HallbergParams{12, 43}, HallbergParams{14, 37},
        HallbergParams{10, 38}, HallbergParams{32, 1}, HallbergParams{20, 13},
        HallbergParams{12, 26}, HallbergParams{11, 27},
        HallbergParams{30, 62}}) {
    SCOPED_TRACE("N=" + std::to_string(p.n) + " M=" + std::to_string(p.m));
    const auto xs = scatter_corpus(p, 40 + static_cast<std::uint64_t>(p.m));
    Hallberg ref(p);
    const std::size_t rejected = add_loop(ref, xs);
    Hallberg got(p);
    EXPECT_EQ(got.accumulate(xs), rejected);
    EXPECT_EQ(got.limbs(), ref.limbs());
    for (const double x : xs) {
      Hallberg a(p);
      Hallberg b(p);
      ASSERT_EQ(a.add(x) ? 0u : 1u, b.accumulate(std::span(&x, 1))) << x;
      ASSERT_EQ(a.limbs(), b.limbs()) << x;
    }
  }
}

TEST(HallbergSpan, ChunkSplitsAreInvisible) {
  const HallbergParams p{10, 38};
  const auto xs = scatter_corpus(p, 77);
  Hallberg ref(p);
  const std::size_t rejected = add_loop(ref, xs);
  util::Xoshiro256ss rng(78);
  for (int trial = 0; trial < 20; ++trial) {
    Hallberg got(p);
    std::size_t got_rejected = 0;
    std::span<const double> rest(xs);
    while (!rest.empty()) {
      const std::size_t len = std::min<std::size_t>(
          rest.size(), rng.bounded(trial < 10 ? 8 : 600));  // incl. empty
      got_rejected += got.accumulate(rest.first(len));
      rest = rest.subspan(len);
    }
    EXPECT_EQ(got_rejected, rejected);
    EXPECT_EQ(got.limbs(), ref.limbs()) << "trial " << trial;
  }
}

// --- The chunk deposit (M >= 26): blocks and the out-of-window scatter ---

static_assert(detail::hallberg_slices(26) == 3 &&
                  detail::hallberg_slices(25) == 4,
              "M = 26 is the narrowest payload the chunk deposit takes");

/// `len` summands every one of which the chunk deposit folds: random sign
/// and mantissa, biased exponent anywhere in [be_lo, be_end), so the lsb
/// is at or above limb 0's unit weight and |x| < range_max.
std::vector<double> window_stream(HallbergParams p, std::size_t len,
                                  std::uint64_t seed) {
  const detail::HallbergChunkTable t = detail::hallberg_chunk_table(p.n, p.m);
  util::Xoshiro256ss rng(seed);
  std::vector<double> xs(len);
  for (double& x : xs) {
    const std::uint64_t be =
        static_cast<std::uint64_t>(t.be_lo) +
        rng.bounded(static_cast<std::uint64_t>(t.be_end - t.be_lo));
    const std::uint64_t r = rng.next();
    x = std::bit_cast<double>((r & (std::uint64_t{1} << 63)) | (be << 52) |
                              (r & ((std::uint64_t{1} << 52) - 1)));
  }
  return xs;
}

/// Fixed-format span deposit vs the add() loop, in limbs and rejected
/// count, starting from the same limbs.
template <int N, int M>
void expect_span_matches(std::span<const double> xs,
                         const HallbergFixed<N, M>& start = {}) {
  HallbergFixed<N, M> ref = start;
  const std::size_t rejected = add_loop(ref, xs);
  HallbergFixed<N, M> got = start;
  EXPECT_EQ(got.accumulate(xs), rejected);
  EXPECT_EQ(got.limbs(), ref.limbs());
}

TEST(HallbergSpan, WrapPastMaxSummandsIsIdentical) {
  // The paper's catastrophic overflow past max_summands(): the span path
  // must fail the same way, limb for limb.
  const HallbergParams p{4, 61};  // 3 safe adds only
  const std::vector<double> xs(100000, 0.75);
  Hallberg ref(p);
  EXPECT_EQ(add_loop(ref, xs), 0u);
  Hallberg got(p);
  EXPECT_EQ(got.accumulate(xs), 0u);
  EXPECT_EQ(got.limbs(), ref.limbs());
  EXPECT_NE(got.to_double(), 0.75 * 100000);

  HallbergFixed<4, 61> fixed_ref;
  HallbergFixed<4, 61> fixed_got;
  add_loop(fixed_ref, xs);
  fixed_got.accumulate(xs);
  EXPECT_EQ(fixed_got.limbs(), fixed_ref.limbs());

  // Mixed signs and exponents over 3+ blocks of the chunk deposit: its
  // folded sums must wrap exactly as the add() loop's limbs do.
  constexpr std::size_t len = 3 * kernel::kChunkBlock + 7;
  expect_span_matches<4, 61>(window_stream(p, len, 31));
  expect_span_matches<30, 62>(window_stream(HallbergParams{30, 62}, len, 32));
}

template <int N, int M>
void expect_lengths_match(std::uint64_t seed) {
  SCOPED_TRACE("HallbergFixed<" + std::to_string(N) + "," + std::to_string(M) +
               ">");
  constexpr std::size_t b = kernel::kChunkBlock;
  for (const std::size_t len :
       {std::size_t{1}, b - 1, b, b + 1, 2 * b + 1, 2 * b + 5}) {
    SCOPED_TRACE("len " + std::to_string(len));
    const auto xs = window_stream(HallbergFixed<N, M>::params(), len, seed);
    expect_span_matches<N, M>(xs);
    // A non-zero start: the fold adds into limbs already holding a sum.
    HallbergFixed<N, M> start;
    add_loop(start, std::span(xs).first(len / 2 + 1));
    expect_span_matches<N, M>(xs, start);
  }
}

TEST(HallbergSpan, BlockBoundaryLengths) {
  expect_lengths_match<10, 38>(11);
  expect_lengths_match<10, 52>(12);
  expect_lengths_match<12, 43>(13);
  expect_lengths_match<14, 37>(14);
  expect_lengths_match<12, 26>(15);
  expect_lengths_match<11, 27>(16);
  expect_lengths_match<30, 62>(17);
}

/// One value of every kind the chunk deposit leaves to the scatter.
std::vector<double> outside_window(HallbergParams p) {
  const int half = p.n * p.m / 2;
  const double inf = std::numeric_limits<double>::infinity();
  return {
      0.0, -0.0,
      std::numeric_limits<double>::denorm_min(),   // subnormal
      std::ldexp(1.0, -half - 1),                  // entirely below the lsb
      std::ldexp(1.0 - 0x1p-53, 52 - half),        // lowest bit below the lsb
      p.range_max(), -p.range_max(),
      std::numeric_limits<double>::quiet_NaN(), inf, -inf,
  };
}

template <int N, int M>
void expect_out_of_window_matches(std::uint64_t seed) {
  SCOPED_TRACE("HallbergFixed<" + std::to_string(N) + "," + std::to_string(M) +
               ">");
  const HallbergParams p = HallbergFixed<N, M>::params();
  constexpr std::size_t b = kernel::kChunkBlock;
  const auto clean = window_stream(p, 3 * b, seed);
  for (const double v : outside_window(p)) {
    // First, middle and last index of the middle block.
    for (const std::size_t at : {b, b + b / 2, 2 * b - 1}) {
      SCOPED_TRACE("value " + std::to_string(v) + " at " + std::to_string(at));
      auto xs = clean;
      xs[at] = v;
      expect_span_matches<N, M>(xs);
      // The block must have left the scratch zero: a later call on this
      // thread, over the same keys, still matches.
      expect_span_matches<N, M>(clean);
    }
  }
  // Many outside summands per block (more than the scatter's batch), and
  // a block of nothing else, between in-window ones.
  util::Xoshiro256ss rng(seed);
  const auto bad = outside_window(p);
  auto xs = clean;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i / b == 1 || rng.bounded(8) == 0) xs[i] = bad[rng.bounded(bad.size())];
  }
  expect_span_matches<N, M>(xs);
  expect_span_matches<N, M>(clean);
}

TEST(HallbergSpan, OutOfWindowSummandsTakeTheScatter) {
  expect_out_of_window_matches<10, 38>(21);
  expect_out_of_window_matches<12, 26>(22);
  expect_out_of_window_matches<30, 62>(23);
  expect_out_of_window_matches<4, 61>(24);
}

}  // namespace
}  // namespace hpsum
