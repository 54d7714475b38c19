// Tests for the message-passing runtime and its HP reduction ops.
#include "mpisim/mpisim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hp_status.hpp"

#include "backends/scaling.hpp"
#include "core/reduce.hpp"
#include "mpisim/hp_ops.hpp"
#include "workload/workload.hpp"

namespace hpsum::mpisim {
namespace {

TEST(Mpisim, RunGivesEveryRankCorrectIdentity) {
  std::vector<int> seen(8, -1);
  run(8, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(Mpisim, RunRejectsBadRankCount) {
  EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(Mpisim, RunRejectsFiberStacksBelowTheFloor) {
  // A fiber's first frame is written at the top of its stack, so an empty
  // or tiny stack would be overrun on the first resume.
  RunOptions opts;
  opts.mode = RunMode::kMultiplexed;
  opts.workers = 1;
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{64},
                                  kMinStackBytes - 1}) {
    opts.stack_bytes = bytes;
    EXPECT_THROW(run(2, [](Comm& comm) { comm.barrier(); }, opts),
                 std::invalid_argument)
        << "stack_bytes=" << bytes;
  }
  opts.stack_bytes = kMinStackBytes;
  int done = 0;
  run(2, [&](Comm& comm) {
    comm.barrier();
    if (comm.rank() == 0) done = 1;
  }, opts);
  EXPECT_EQ(done, 1);
}

TEST(Mpisim, CountMismatchThrowsOnEveryAlgorithmAndWire) {
  // Ranks that disagree on a collective's element count must fail loudly:
  // the raw wire checks every message's size, the sparse wire's decoder
  // checks the element count it was handed.
  const HpConfig cfg{6, 3};
  const Datatype dt = hp_datatype(cfg);
  for (const bool all : {false, true}) {
    for (const ReduceAlgo algo :
         {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
          ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
      for (const Wire wire : {Wire::kRaw, Wire::kSparse}) {
        const auto ctx = [&] {
          return std::string(all ? "allreduce" : "reduce") +
                 " algo=" + std::to_string(static_cast<int>(algo)) +
                 " wire=" + std::to_string(static_cast<int>(wire));
        };
        try {
          run(4, [&](Comm& comm) {
            const std::size_t count = comm.rank() == 2 ? 3 : 2;
            std::vector<std::byte> send(count * dt.size);
            std::vector<std::byte> recv(count * dt.size);
            const Op op = hp_sum_op(cfg, wire);
            if (all) {
              comm.allreduce(send.data(), recv.data(), count, dt, op, algo);
            } else {
              comm.reduce(send.data(), recv.data(), count, dt, op, 0, algo);
            }
          });
          ADD_FAILURE() << "no throw: " << ctx();
        } catch (const std::invalid_argument&) {
          EXPECT_EQ(wire, Wire::kSparse) << ctx();
        } catch (const std::logic_error& e) {
          EXPECT_EQ(wire, Wire::kRaw) << ctx();
          EXPECT_NE(std::string(e.what()).find("recv size mismatch"),
                    std::string::npos)
              << ctx();
        }
      }
    }
  }
}

TEST(Mpisim, ReduceRejectsOutOfRangeRoot) {
  // Regression: an out-of-range root made kBinomialTree and
  // kRecursiveDoubling return without ever writing a result, while
  // kLinear and kRecursiveHalving failed deep in the transport. Now every
  // rank rejects it before a single message moves.
  const int ranks = 4;
  for (const ReduceAlgo algo :
       {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
        ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
    for (const int root : {-1, ranks, ranks + 3}) {
      const std::string ctx = "algo=" +
                              std::to_string(static_cast<int>(algo)) +
                              " root=" + std::to_string(root);
      RunStats stats;
      RunOptions opts;
      opts.stats = &stats;
      std::atomic<int> rejected{0};
      EXPECT_THROW(run(ranks,
                       [&](Comm& comm) {
                         const double mine = 1.0;
                         double out = 0;
                         try {
                           comm.reduce(&mine, &out, 1, Datatype::f64(),
                                       f64_sum_op(), root, algo);
                         } catch (const std::out_of_range&) {
                           rejected.fetch_add(1);
                           throw;
                         }
                       },
                       opts),
                   std::out_of_range)
          << ctx;
      EXPECT_EQ(rejected.load(), ranks) << ctx;
      EXPECT_EQ(stats.messages, 0u) << ctx;
    }
  }
}

TEST(Mpisim, BarrierOrdersPhases) {
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  run(8, [&](Comm& comm) {
    phase1.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all 8 phase-1 increments.
    if (phase1.load() != 8) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Mpisim, ReduceDoubleLinearMatchesSequentialOrder) {
  // The linear algorithm folds ranks in ascending order, which is exactly
  // a left-to-right double sum of the per-rank values.
  const std::vector<double> vals = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  run(7, [&](Comm& comm) {
    const double mine = vals[static_cast<std::size_t>(comm.rank())];
    double out = 0;
    comm.reduce(&mine, &out, 1, Datatype::f64(), f64_sum_op(), 0,
                ReduceAlgo::kLinear);
    if (comm.rank() == 0) {
      double expect = 0;
      for (const double v : vals) expect += v;
      EXPECT_EQ(out, expect);
    }
  });
}

TEST(Mpisim, ReduceMultiElementAppliesOpPerElement) {
  run(4, [](Comm& comm) {
    const double mine[3] = {1.0 * comm.rank(), 2.0, -1.0};
    double out[3] = {0, 0, 0};
    comm.reduce(mine, out, 3, Datatype::f64(), f64_sum_op(), 0,
                ReduceAlgo::kBinomialTree);
    if (comm.rank() == 0) {
      EXPECT_EQ(out[0], 0.0 + 1.0 + 2.0 + 3.0);
      EXPECT_EQ(out[1], 8.0);
      EXPECT_EQ(out[2], -4.0);
    }
  });
}

TEST(Mpisim, AllreduceAgreesOnAllRanks) {
  std::vector<double> results(9, 0.0);
  run(9, [&](Comm& comm) {
    const double mine = 1.5;
    double out = 0;
    comm.allreduce(&mine, &out, 1, Datatype::f64(), f64_sum_op());
    results[static_cast<std::size_t>(comm.rank())] = out;
  });
  for (const double r : results) EXPECT_EQ(r, 13.5);
}

TEST(Mpisim, HpReduceIsInvariantAcrossAlgorithmsAndRankCounts) {
  // The Fig 6 headline: the same global data reduced over different rank
  // topologies and reduction trees gives a bit-identical HP sum.
  const auto xs = workload::uniform_set(30000, 61);
  const HpConfig cfg{6, 3};
  const HpDyn ref = reduce_hp(xs, cfg);

  for (const int ranks : {1, 2, 5, 8, 16}) {
    for (const ReduceAlgo algo :
         {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree}) {
      std::vector<util::Limb> root_limbs;
      run(ranks, [&](Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        HpDyn local(cfg);
        for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
          local += x;
        }
        const HpDyn total = reduce_hp_value(comm, local, 0, algo);
        if (comm.rank() == 0) {
          root_limbs.assign(total.limbs().begin(), total.limbs().end());
        }
      });
      ASSERT_EQ(root_limbs.size(), ref.limbs().size());
      for (std::size_t i = 0; i < root_limbs.size(); ++i) {
        EXPECT_EQ(root_limbs[i], ref.limbs()[i])
            << "ranks=" << ranks << " algo=" << static_cast<int>(algo);
      }
    }
  }
}

TEST(Mpisim, DoubleReduceVariesAcrossTopologies) {
  // The premise: the identical experiment with the double op is NOT
  // invariant — linear vs tree orderings round differently.
  const auto xs = workload::uniform_set(30000, 62);
  std::vector<double> results;
  for (const int ranks : {4, 16}) {
    for (const ReduceAlgo algo :
         {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree}) {
      double root_val = 0;
      run(ranks, [&](Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        double local = 0;
        for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
          local += x;
        }
        double out = 0;
        comm.reduce(&local, &out, 1, Datatype::f64(), f64_sum_op(), 0, algo);
        if (comm.rank() == 0) root_val = out;
      });
      results.push_back(root_val);
    }
  }
  bool any_diff = false;
  for (const double r : results) any_diff = any_diff || (r != results[0]);
  EXPECT_TRUE(any_diff);
}

TEST(MpisimDetail, CollectiveTagsStayInWindowAndWrap) {
  constexpr int kWindow = detail::kCollectiveTagWindow;
  EXPECT_EQ(detail::collective_tag(0), 0);
  EXPECT_EQ(detail::collective_tag(1), 1);
  const auto limit = static_cast<std::uint64_t>(kWindow);
  EXPECT_EQ(detail::collective_tag(limit - 1), kWindow - 1);
  // Regression: the tag used to be kCollectiveTagBase + seq with no bound,
  // so a long-running simulation could walk the tag past INT_MAX into
  // signed overflow. Now it wraps within the collective window.
  EXPECT_EQ(detail::collective_tag(limit), 0);
  for (const std::uint64_t seq :
       {limit * 3 + 17, std::numeric_limits<std::uint64_t>::max()}) {
    const int tag = detail::collective_tag(seq);
    EXPECT_GE(tag, 0);
    EXPECT_LT(tag, kWindow);
  }
}

TEST(Mpisim, RankExceptionAbortsBlockedPeersInsteadOfDeadlocking) {
  // Regression: a rank body throwing while peers were blocked waiting for
  // its message used to deadlock run() — the join loop waited forever on
  // the blocked ranks, and the error was never rethrown. Now the first
  // failure poisons the runtime, blocked ranks abort with RankAborted, and
  // run() rethrows the original error. Before the fix this test hung.
  for (const ReduceAlgo algo :
       {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
        ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
    try {
      run(4, [algo](Comm& comm) {
        if (comm.rank() == 3) throw std::runtime_error("rank 3 exploded");
        const double mine = 1.0;
        double out = 0;
        // Rank 0 (at least) waits on rank 3's contribution forever
        // without the abort.
        comm.reduce(&mine, &out, 1, Datatype::f64(), f64_sum_op(), 0, algo);
      });
      ADD_FAILURE() << "run() should have rethrown the rank error, algo="
                    << static_cast<int>(algo);
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 3 exploded");
    }
  }
}

TEST(Mpisim, RankExceptionAbortsBlockedBarrierAndCollectives) {
  try {
    run(6, [](Comm& comm) {
      if (comm.rank() == 0) throw std::logic_error("early failure");
      if (comm.rank() % 2 == 0) {
        comm.barrier();
      } else {
        double out = 0;
        const double mine = 1.0;
        comm.allreduce(&mine, &out, 1, Datatype::f64(), f64_sum_op());
      }
    });
    FAIL() << "run() should have rethrown the rank error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "early failure");
  }
}

TEST(Mpisim, RankExceptionAbortsMultiplexedRanks) {
  RunOptions opts;
  opts.mode = RunMode::kMultiplexed;
  opts.workers = 2;
  try {
    run(64,
        [](Comm& comm) {
          if (comm.rank() == 17) throw std::runtime_error("fiber down");
          // Even ranks park in the barrier. Odd ranks are binomial-tree
          // leaves: each sends its value up, then parks in a receive for
          // rank 0's broadcast, which never comes. The abort must wake
          // both kinds of blocked fiber.
          if (comm.rank() % 2 == 0) {
            comm.barrier();
          } else {
            const double mine = 1.0;
            double out = 0;
            comm.allreduce(&mine, &out, 1, Datatype::f64(), f64_sum_op(),
                           ReduceAlgo::kBinomialTree);
          }
        },
        opts);
    FAIL() << "run() should have rethrown the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fiber down");
  }
}

TEST(Mpisim, LateEntrantsToPoisonedRuntimeAbortToo) {
  // A rank that starts communicating only after the failure must also
  // abort (abort_check on entry), not enqueue into a dead world.
  std::atomic<int> aborted{0};
  try {
    run(3, [&](Comm& comm) {
      if (comm.rank() == 0) throw std::runtime_error("instant failure");
      try {
        for (;;) {
          comm.barrier();
        }
      } catch (const RankAborted&) {
        aborted.fetch_add(1);
        throw;
      }
    });
    FAIL() << "run() should have rethrown the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "instant failure");
  }
  EXPECT_EQ(aborted.load(), 2);
}

TEST(Mpisim, MultiplexedModeMatchesThreadedAllreduce) {
  // A ring shift built from an allreduce: each rank contributes only its
  // own slot of a 12-element vector, then reads its left neighbour's.
  const int p = 12;
  const auto ring = [&](const RunOptions& opts, ReduceAlgo algo) {
    std::vector<double> got(p, -1.0);
    run(p,
        [&](Comm& comm) {
          std::vector<double> mine(p, 0.0);
          std::vector<double> all(p, 0.0);
          const auto r = static_cast<std::size_t>(comm.rank());
          mine[r] = comm.rank() * 3.0;
          comm.allreduce(mine.data(), all.data(), p, Datatype::f64(),
                         f64_sum_op(), algo);
          comm.barrier();
          got[r] = all[static_cast<std::size_t>((comm.rank() + p - 1) % p)];
        },
        opts);
    return got;
  };
  for (const ReduceAlgo algo :
       {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
        ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
    RunOptions threaded;
    threaded.mode = RunMode::kThreads;
    const std::vector<double> want = ring(threaded, algo);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(want[static_cast<std::size_t>(r)], ((r + p - 1) % p) * 3.0)
          << "algo=" << static_cast<int>(algo);
    }
    for (const int workers : {1, 3}) {
      RunOptions opts;
      opts.mode = RunMode::kMultiplexed;
      opts.workers = workers;
      EXPECT_EQ(ring(opts, algo), want)
          << "workers=" << workers << " algo=" << static_cast<int>(algo);
    }
  }
}

TEST(Mpisim, RunStatsReportResolvedModeAndTraffic) {
  RunStats stats;
  RunOptions opts;
  opts.stats = &stats;
  run(4, [](Comm& comm) { comm.barrier(); }, opts);
  EXPECT_EQ(stats.mode, RunMode::kThreads);  // kAuto at 4 ranks
  EXPECT_EQ(stats.workers, 4);

  opts.mode = RunMode::kMultiplexed;
  opts.workers = 2;
  run(4,
      [](Comm& comm) {
        const double x = 1.0;
        double out = 0;
        comm.allreduce(&x, &out, 1, Datatype::f64(), f64_sum_op());
      },
      opts);
  EXPECT_EQ(stats.mode, RunMode::kMultiplexed);
  EXPECT_EQ(stats.workers, 2);
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  // No codec on the f64 op: encoded == raw.
  EXPECT_EQ(stats.wire_raw_bytes, stats.wire_encoded_bytes);
  EXPECT_GT(stats.wire_raw_bytes, 0u);
}

TEST(Mpisim, SparseWireCutsHpReductionBytes) {
  const HpConfig cfg{6, 3};
  const auto xs = workload::lognormal_set(4096, 77);
  std::vector<util::Limb> totals[2];
  const auto run_wire = [&](Wire wire, std::vector<util::Limb>* limbs) {
    RunStats stats;
    RunOptions opts;
    opts.stats = &stats;
    run(8,
        [&](Comm& comm) {
          const auto slices = backends::partition(xs, comm.size());
          HpDyn local(cfg);
          for (const double x :
               slices[static_cast<std::size_t>(comm.rank())]) {
            local += x;
          }
          const HpDyn total = allreduce_hp_value(
              comm, local, ReduceAlgo::kRecursiveDoubling, wire);
          if (comm.rank() == 0) {
            limbs->assign(total.limbs().begin(), total.limbs().end());
          }
        },
        opts);
    return stats;
  };
  const RunStats raw = run_wire(Wire::kRaw, &totals[0]);
  const RunStats sparse = run_wire(Wire::kSparse, &totals[1]);
  EXPECT_EQ(totals[0], totals[1]);  // the codec is exact
  EXPECT_EQ(raw.wire_raw_bytes, raw.wire_encoded_bytes);
  EXPECT_LT(sparse.wire_encoded_bytes * 3, sparse.wire_raw_bytes);
  // Same payload schedule either way (plus kRaw's status reduction).
  EXPECT_GE(raw.messages, sparse.messages);
}

// The tentpole matrix: all four reduction topologies, both wire formats,
// both execution engines, across power-of-two and awkward rank counts —
// every combination must produce the bit-identical HP limbs AND status.
TEST(Mpisim, HpReductionMatrixIsBitIdenticalAcrossEverything) {
  auto xs = workload::uniform_set(24000, 71);
  // Spice the stream so the status mask is non-trivial: values far below
  // the HP{6,3} lsb raise kInexact on deposit, and their flags must
  // survive every topology/wire/engine combination.
  xs[100] = 1e-300;
  xs[20000] = -1e-290;
  const HpConfig cfg{6, 3};
  HpDyn ref(cfg);
  for (const double x : xs) ref += x;

  for (const int ranks : {2, 5, 8, 16}) {
    for (const ReduceAlgo algo :
         {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
          ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
      for (const Wire wire : {Wire::kRaw, Wire::kSparse}) {
        for (const RunMode mode : {RunMode::kThreads, RunMode::kMultiplexed}) {
          for (const int root : {0, ranks - 1}) {
            RunOptions opts;
            opts.mode = mode;
            opts.workers = 3;
            std::vector<util::Limb> root_limbs;
            HpStatus root_status = HpStatus::kOk;
            run(ranks,
                [&](Comm& comm) {
                  const auto slices = backends::partition(xs, comm.size());
                  HpDyn local(cfg);
                  for (const double x :
                       slices[static_cast<std::size_t>(comm.rank())]) {
                    local += x;
                  }
                  const HpDyn total =
                      reduce_hp_value(comm, local, root, algo, wire);
                  if (comm.rank() == root) {
                    root_limbs.assign(total.limbs().begin(),
                                      total.limbs().end());
                    root_status = total.status();
                  }
                },
                opts);
            const auto ctx = [&] {
              return "ranks=" + std::to_string(ranks) +
                     " algo=" + std::to_string(static_cast<int>(algo)) +
                     " wire=" + std::to_string(static_cast<int>(wire)) +
                     " mode=" + std::to_string(static_cast<int>(mode)) +
                     " root=" + std::to_string(root);
            };
            ASSERT_EQ(root_limbs.size(), ref.limbs().size()) << ctx();
            for (std::size_t i = 0; i < root_limbs.size(); ++i) {
              EXPECT_EQ(root_limbs[i], ref.limbs()[i])
                  << ctx() << " limb " << i;
            }
            EXPECT_EQ(root_status, ref.status()) << ctx();
          }
        }
      }
    }
  }
}

TEST(Mpisim, HpAllreduceAgreesOnEveryRankWithGlobalStatus) {
  auto xs = workload::uniform_set(16000, 73);
  xs[7] = 1e-300;  // kInexact must reach every rank
  const HpConfig cfg{6, 3};
  HpDyn ref(cfg);
  for (const double x : xs) ref += x;

  for (const ReduceAlgo algo :
       {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
        ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
    for (const Wire wire : {Wire::kRaw, Wire::kSparse}) {
      const int ranks = 12;
      std::vector<std::vector<util::Limb>> limbs(
          static_cast<std::size_t>(ranks));
      std::vector<HpStatus> status(static_cast<std::size_t>(ranks),
                                   HpStatus::kOk);
      run(ranks, [&](Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        HpDyn local(cfg);
        for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
          local += x;
        }
        const HpDyn total = allreduce_hp_value(comm, local, algo, wire);
        const auto r = static_cast<std::size_t>(comm.rank());
        limbs[r].assign(total.limbs().begin(), total.limbs().end());
        status[r] = total.status();
      });
      for (int r = 0; r < ranks; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        ASSERT_EQ(limbs[ri].size(), ref.limbs().size());
        for (std::size_t i = 0; i < limbs[ri].size(); ++i) {
          EXPECT_EQ(limbs[ri][i], ref.limbs()[i])
              << "rank=" << r << " algo=" << static_cast<int>(algo)
              << " wire=" << static_cast<int>(wire);
        }
        EXPECT_EQ(status[ri], ref.status())
            << "rank=" << r << " algo=" << static_cast<int>(algo)
            << " wire=" << static_cast<int>(wire);
      }
    }
  }
}

// Sparse and raw wires deliver the same limbs and status on every rank, for
// every algorithm on both engines, at counts whose encoded messages sit on
// both sides of the mailbox's inline payload (one worst-case sparse
// HP(6,3) element): HP(6,3) x 1..8 and HP(34,17) x 1..3.
TEST(Mpisim, SparseWireMatchesRawAcrossInlinePayloadSizes) {
  struct Case {
    HpConfig cfg;
    std::size_t max_count;
  };
  const int ranks = 6;  // not a power of two: the fold-in/out paths run
  for (const Case c : {Case{{6, 3}, 8}, Case{{34, 17}, 3}}) {
    const HpConfig cfg = c.cfg;
    const Datatype dt = hp_datatype(cfg);
    for (std::size_t count = 1; count <= c.max_count; ++count) {
      // Element e of rank r: a value of mixed sign and magnitude; element
      // 1 instead carries 2^61 in the top limb, so the ranks' sum
      // overflows (kAddOverflow in some combine). Rank 1 seeds kInexact.
      std::vector<std::vector<std::byte>> images(ranks);
      std::vector<HpDyn> want(count, HpDyn(cfg));
      for (int r = 0; r < ranks; ++r) {
        auto& image = images[static_cast<std::size_t>(r)];
        image.resize(count * dt.size);
        for (std::size_t e = 0; e < count; ++e) {
          HpDyn v(cfg);
          if (e == 1) {
            v.limbs()[0] = util::Limb{1} << 61;
          } else {
            const double mag = std::ldexp(1.0 + 0.1 * static_cast<double>(r),
                                          static_cast<int>(e * 13) - 40);
            v += (r + static_cast<int>(e)) % 3 == 0 ? -mag : mag;
          }
          v.to_bytes(image.data() + e * dt.size);
          want[e] += v;
        }
      }
      std::uint8_t want_status = static_cast<std::uint8_t>(HpStatus::kInexact);
      for (const HpDyn& w : want) {
        want_status |= static_cast<std::uint8_t>(w.status());
      }
      for (const ReduceAlgo algo :
           {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
            ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
        for (const RunMode mode : {RunMode::kThreads, RunMode::kMultiplexed}) {
          const auto ctx = [&] {
            return "n=" + std::to_string(cfg.n) +
                   " count=" + std::to_string(count) +
                   " algo=" + std::to_string(static_cast<int>(algo)) +
                   " mode=" + std::to_string(static_cast<int>(mode));
          };
          std::vector<std::byte> got[2];  // [wire]: every rank's result
          std::vector<std::uint8_t> status[2];
          for (const Wire wire : {Wire::kRaw, Wire::kSparse}) {
            const auto w = static_cast<std::size_t>(wire == Wire::kSparse);
            got[w].assign(ranks * count * dt.size, std::byte{0});
            status[w].assign(ranks, 0);
            RunOptions opts;
            opts.mode = mode;
            opts.workers = 2;
            run(ranks,
                [&](Comm& comm) {
                  const auto r = static_cast<std::size_t>(comm.rank());
                  Op op = hp_sum_op(cfg, wire);
                  const std::uint8_t seed =
                      r == 1 ? static_cast<std::uint8_t>(HpStatus::kInexact)
                             : 0;
                  op.seed_status = seed;
                  comm.allreduce(images[r].data(),
                                 got[w].data() + r * count * dt.size, count,
                                 dt, op, algo);
                  std::uint8_t st = op.observed_status();
                  if (wire == Wire::kRaw) {
                    // The raw wire carries no status: reduce it.
                    auto st_send = static_cast<std::byte>(st | seed);
                    std::byte st_recv{0};
                    comm.allreduce(&st_send, &st_recv, 1,
                                   hp_status_datatype(), hp_status_or_op(),
                                   algo);
                    st = static_cast<std::uint8_t>(st_recv);
                  }
                  status[w][r] = st;
                },
                opts);
          }
          EXPECT_EQ(got[0], got[1]) << ctx();
          EXPECT_EQ(status[0], status[1]) << ctx();
          for (int r = 0; r < ranks; ++r) {
            const auto ri = static_cast<std::size_t>(r);
            EXPECT_EQ(status[1][ri], want_status) << ctx() << " rank=" << r;
            for (std::size_t e = 0; e < count; ++e) {
              HpDyn v(cfg);
              v.from_bytes(got[1].data() + (ri * count + e) * dt.size);
              EXPECT_TRUE(std::equal(v.limbs().begin(), v.limbs().end(),
                                     want[e].limbs().begin()))
                  << ctx() << " rank=" << r << " element=" << e;
            }
          }
        }
      }
    }
  }
}

// The scaling claim behind the multiplexed engine: a rank count far past
// any OS thread limit, all four topologies bit-identical. CI runs this
// (ctest -R ThousandRank) as the large-scale agreement gate.
TEST(Mpisim, ThousandRankMultiplexedReductionsAgree) {
  const int ranks = 1024;
  const HpConfig cfg{6, 3};
  const auto xs = workload::lognormal_set(8192, 79);
  HpDyn ref(cfg);
  for (const double x : xs) ref += x;

  RunOptions opts;
  opts.mode = RunMode::kMultiplexed;
  for (const ReduceAlgo algo :
       {ReduceAlgo::kLinear, ReduceAlgo::kBinomialTree,
        ReduceAlgo::kRecursiveDoubling, ReduceAlgo::kRecursiveHalving}) {
    std::vector<util::Limb> root_limbs;
    HpStatus root_status = HpStatus::kOk;
    run(ranks,
        [&](Comm& comm) {
          const auto slices = backends::partition(xs, comm.size());
          HpDyn local(cfg);
          for (const double x :
               slices[static_cast<std::size_t>(comm.rank())]) {
            local += x;
          }
          const HpDyn total = reduce_hp_value(
              comm, local, 0, algo, Wire::kSparse);
          if (comm.rank() == 0) {
            root_limbs.assign(total.limbs().begin(), total.limbs().end());
            root_status = total.status();
          }
        },
        opts);
    ASSERT_EQ(root_limbs.size(), ref.limbs().size());
    for (std::size_t i = 0; i < root_limbs.size(); ++i) {
      EXPECT_EQ(root_limbs[i], ref.limbs()[i])
          << "algo=" << static_cast<int>(algo) << " limb " << i;
    }
    EXPECT_EQ(root_status, ref.status()) << "algo=" << static_cast<int>(algo);
  }
}

TEST(Mpisim, AutoModeSwitchesToMultiplexedAboveThreadLimit) {
  RunStats stats;
  RunOptions opts;
  opts.stats = &stats;
  run(130, [](Comm& comm) { comm.barrier(); }, opts);
#if defined(__linux__)
  EXPECT_EQ(stats.mode, RunMode::kMultiplexed);
  EXPECT_GT(stats.workers, 0);
  EXPECT_LT(stats.workers, 130);
#else
  EXPECT_EQ(stats.mode, RunMode::kThreads);
#endif
}

TEST(Mpisim, HallbergReduceInvariantAfterNormalize) {
  const auto xs = workload::uniform_set(20000, 63);
  const HallbergParams p{10, 38};
  Hallberg ref(p);
  for (const double x : xs) ref.add(x);
  ref.normalize();

  for (const int ranks : {3, 8}) {
    std::vector<std::int64_t> root_limbs;
    run(ranks, [&](Comm& comm) {
      const auto slices = backends::partition(xs, comm.size());
      Hallberg local(p);
      for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
        local.add(x);
      }
      std::vector<std::byte> send(local.limbs().size() * sizeof(std::int64_t));
      std::memcpy(send.data(), local.limbs().data(), send.size());
      std::vector<std::byte> recv(send.size());
      comm.reduce(send.data(), recv.data(), 1, hallberg_datatype(p),
                  hallberg_sum_op(p), 0);
      if (comm.rank() == 0) {
        Hallberg total(p);
        std::memcpy(total.limbs().data(), recv.data(), recv.size());
        total.normalize();
        root_limbs = total.limbs();
      }
    });
    EXPECT_EQ(root_limbs, ref.limbs()) << "ranks=" << ranks;
  }
}

}  // namespace
}  // namespace hpsum::mpisim
