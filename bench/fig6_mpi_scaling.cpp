// Figure 6 reproduction: message-passing strong scaling of the 32M global
// sum — double vs HP(6,3) vs Hallberg(10,38), reducing with a custom
// datatype + op (the paper's MPI_Reduce experiment, run on the mpisim
// runtime; DESIGN.md §2). Beyond the paper's 128 ranks, the multiplexed
// engine (docs/MPISIM.md) scales the same experiment to thousands of
// simulated ranks, and the HP rows can ship the sparse limb wire codec
// (docs/FORMAT.md) — the run reports the achieved raw/encoded byte ratio.
//
// Each rank reduces its slice locally (per-rank CPU busy time measured),
// then a single Reduce with the method's registered Op combines the
// partials at rank 0. Modeled wallclock = max rank busy + root combine.
// Every (ranks, method) point runs once untimed, then keeps the fastest
// of three timed runs.
//
// Flags: --n (default 4M; paper 32M), --maxp (default 128; mux engine
//        supports 4096), --seed,
//        --algo  (tree|linear|rdouble|rhalf, default tree),
//        --wire  (raw|sparse, default raw; HP rows only — double/Hallberg
//                 payloads always travel raw),
//        --mode  (auto|threads|mux, default auto),
//        --dist  (uniform|lognormal, default uniform),
//        --json=PATH (the bench record tools/bench_smoke.py gates).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "backends/scaling.hpp"
#include "common.hpp"
#include "core/reduce.hpp"
#include "hallberg/hallberg.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

struct Point {
  double modeled = 0;
  double measured = 0;
  double value = 0;
  mpisim::RunStats stats;
};

/// Generic mpisim scaling point: `local` reduces a slice into a
/// method-specific partial; the partial travels through Comm::reduce with
/// (dt, op); `finish` turns root's bytes into a double.
template <class LocalFn, class FinishFn>
Point run_point(const std::vector<double>& xs, int ranks,
                const mpisim::Datatype& dt, const mpisim::Op& op,
                mpisim::ReduceAlgo algo, const mpisim::RunOptions& base_opts,
                LocalFn local, FinishFn finish) {
  // One logical reduction: all ranks' flight events (local reduce, sends,
  // recvs, Comm::reduce spans) carry this id as their correlation key.
  const trace::flight::ReductionScope reduction(xs.size());
  Point out;
  mpisim::RunOptions opts = base_opts;
  opts.stats = &out.stats;
  std::vector<double> busy(static_cast<std::size_t>(ranks), 0.0);
  double root_combine = 0;
  util::WallTimer wall;
  mpisim::run(
      ranks,
      [&](mpisim::Comm& comm) {
        const auto slices = backends::partition(xs, comm.size());
        util::ThreadCpuTimer cpu;
        std::vector<std::byte> send =
            local(slices[static_cast<std::size_t>(comm.rank())]);
        busy[static_cast<std::size_t>(comm.rank())] = cpu.seconds();

        std::vector<std::byte> recv(send.size());
        util::ThreadCpuTimer combine_cpu;
        comm.reduce(send.data(), recv.data(), 1, dt, op, 0, algo);
        if (comm.rank() == 0) {
          root_combine = combine_cpu.seconds();
          out.value = finish(recv);
        }
      },
      opts);
  out.measured = wall.seconds();
  double busy_max = 0;
  for (const double b : busy) busy_max = std::max(busy_max, b);
  out.modeled = busy_max + root_combine;
  return out;
}

Point point_double(const std::vector<double>& xs, int ranks,
                   mpisim::ReduceAlgo algo, const mpisim::RunOptions& opts) {
  return run_point(
      xs, ranks, mpisim::Datatype::f64(), mpisim::f64_sum_op(), algo, opts,
      [](std::span<const double> slice) {
        const double v = reduce_double(slice);
        std::vector<std::byte> bytes(sizeof v);
        std::memcpy(bytes.data(), &v, sizeof v);
        return bytes;
      },
      [](const std::vector<std::byte>& bytes) {
        double v = 0;
        std::memcpy(&v, bytes.data(), sizeof v);
        return v;
      });
}

Point point_hp(const std::vector<double>& xs, int ranks,
               mpisim::ReduceAlgo algo, mpisim::Wire wire,
               const mpisim::RunOptions& opts) {
  const HpConfig cfg{6, 3};
  return run_point(
      xs, ranks, mpisim::hp_datatype(cfg), mpisim::hp_sum_op(cfg, wire), algo,
      opts,
      [cfg](std::span<const double> slice) {
        const HpDyn v = reduce_hp(slice, cfg);
        std::vector<std::byte> bytes(v.byte_size());
        v.to_bytes(bytes.data());
        return bytes;
      },
      [cfg](const std::vector<std::byte>& bytes) {
        HpDyn v(cfg);
        v.from_bytes(bytes.data());
        return v.to_double();
      });
}

Point point_hallberg(const std::vector<double>& xs, int ranks,
                     mpisim::ReduceAlgo algo,
                     const mpisim::RunOptions& opts) {
  const HallbergParams p{10, 38};
  return run_point(
      xs, ranks, mpisim::hallberg_datatype(p), mpisim::hallberg_sum_op(p),
      algo, opts,
      [p](std::span<const double> slice) {
        Hallberg v(p);
        v.accumulate(slice);
        std::vector<std::byte> bytes(v.limbs().size() * sizeof(std::int64_t));
        std::memcpy(bytes.data(), v.limbs().data(), bytes.size());
        return bytes;
      },
      [p](const std::vector<std::byte>& bytes) {
        Hallberg v(p);
        std::memcpy(v.limbs().data(), bytes.data(), bytes.size());
        return v.to_double();
      });
}

/// Timed runs per (ranks, method) point, after one untimed warm-up run:
/// the point keeps the fastest, as bench::time_min does. A cold run times
/// first-touch page faults and cold caches as much as the reduction, and
/// the first point is the ~5 ms p = 1 double sum every ratio divides by.
constexpr int kTimedRuns = 3;

/// Runs `point` once untimed, then kTimedRuns times; returns the warm-up's
/// value and stats (every run of a point computes the same ones) with the
/// minimum modeled and measured times of the timed runs.
template <class PointFn>
Point warm_min(const PointFn& point) {
  Point best = point();
  best.modeled = std::numeric_limits<double>::infinity();
  best.measured = std::numeric_limits<double>::infinity();
  for (int t = 0; t < kTimedRuns; ++t) {
    const Point run = point();
    best.modeled = std::min(best.modeled, run.modeled);
    best.measured = std::min(best.measured, run.measured);
  }
  return best;
}

struct Row {
  int ranks = 0;
  Point d;
  Point h;
  Point b;
};

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto maxp = static_cast<int>(args.get_int("maxp", 128));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 6));

  const std::string algo_name = args.get_string("algo", "tree");
  mpisim::ReduceAlgo algo = mpisim::ReduceAlgo::kBinomialTree;
  if (algo_name == "linear") {
    algo = mpisim::ReduceAlgo::kLinear;
  } else if (algo_name == "rdouble") {
    algo = mpisim::ReduceAlgo::kRecursiveDoubling;
  } else if (algo_name == "rhalf") {
    algo = mpisim::ReduceAlgo::kRecursiveHalving;
  } else if (algo_name != "tree") {
    std::fprintf(stderr, "unknown --algo %s (tree|linear|rdouble|rhalf)\n",
                 algo_name.c_str());
    return 2;
  }

  const std::string wire_name = args.get_string("wire", "raw");
  if (wire_name != "raw" && wire_name != "sparse") {
    std::fprintf(stderr, "unknown --wire %s (raw|sparse)\n",
                 wire_name.c_str());
    return 2;
  }
  const mpisim::Wire wire =
      wire_name == "sparse" ? mpisim::Wire::kSparse : mpisim::Wire::kRaw;

  const std::string mode_name = args.get_string("mode", "auto");
  mpisim::RunOptions opts;
  if (mode_name == "threads") {
    opts.mode = mpisim::RunMode::kThreads;
  } else if (mode_name == "mux") {
    opts.mode = mpisim::RunMode::kMultiplexed;
  } else if (mode_name != "auto") {
    std::fprintf(stderr, "unknown --mode %s (auto|threads|mux)\n",
                 mode_name.c_str());
    return 2;
  }

  const std::string dist = args.get_string("dist", "uniform");
  if (dist != "uniform" && dist != "lognormal") {
    std::fprintf(stderr, "unknown --dist %s (uniform|lognormal)\n",
                 dist.c_str());
    return 2;
  }

  bench::banner("Fig 6: message-passing strong scaling, 32M global sum",
                "Fig 6 (§IV.B): MPI_Reduce with custom datatype/op, double "
                "vs HP(6,3) vs Hallberg(10,38), 1..128 ranks (mux engine: "
                "to 4096)");
  std::printf("algo=%s wire=%s mode=%s dist=%s\n\n", algo_name.c_str(),
              wire_name.c_str(), mode_name.c_str(), dist.c_str());

  const auto xs =
      dist == "lognormal"
          ? workload::lognormal_set(static_cast<std::size_t>(n), seed)
          : workload::uniform_set(static_cast<std::size_t>(n), seed);
  bench::sink(reduce_double(xs));  // warm pages/caches before any baseline
  util::TablePrinter table({"ranks", "t_double(model)", "eff_d",
                            "t_HP(model)", "eff_HP", "t_Hall(model)",
                            "eff_Hall", "HPwire(x)"});
  std::vector<Row> rows;
  Point d1;
  Point h1;
  Point b1;
  double hp_ref = 0;
  bool hp_invariant = true;
  for (int p = 1; p <= maxp; p *= 2) {
    Row row;
    row.ranks = p;
    row.d = warm_min([&] { return point_double(xs, p, algo, opts); });
    row.h = warm_min([&] { return point_hp(xs, p, algo, wire, opts); });
    row.b = warm_min([&] { return point_hallberg(xs, p, algo, opts); });
    if (p == 1) {
      d1 = row.d;
      h1 = row.h;
      b1 = row.b;
      hp_ref = row.h.value;
    }
    hp_invariant = hp_invariant && (row.h.value == hp_ref);
    const double hp_wire_ratio =
        row.h.stats.wire_encoded_bytes > 0
            ? static_cast<double>(row.h.stats.wire_raw_bytes) /
                  static_cast<double>(row.h.stats.wire_encoded_bytes)
            : 1.0;
    table.begin_row();
    table.add_int(p);
    table.add_num(row.d.modeled, 4);
    table.add_num(d1.modeled / (p * row.d.modeled), 3);
    table.add_num(row.h.modeled, 4);
    table.add_num(h1.modeled / (p * row.h.modeled), 3);
    table.add_num(row.b.modeled, 4);
    table.add_num(b1.modeled / (p * row.b.modeled), 3);
    table.add_num(hp_wire_ratio, 2);
    rows.push_back(row);
  }
  bench::emit_table(table, args);

  // Aggregate HP wire compression over the points that actually send
  // messages (p >= 2); p = 1 reduces in place. A sending point whose
  // encoded bytes are not below its raw bytes never engaged the codec.
  std::uint64_t hp_raw_total = 0;
  std::uint64_t hp_enc_total = 0;
  std::int64_t uncompressed_points = 0;
  for (const Row& row : rows) {
    if (row.ranks < 2) continue;
    hp_raw_total += row.h.stats.wire_raw_bytes;
    hp_enc_total += row.h.stats.wire_encoded_bytes;
    if (row.h.stats.wire_encoded_bytes >= row.h.stats.wire_raw_bytes) {
      ++uncompressed_points;
    }
  }
  const double wire_ratio =
      hp_enc_total > 0 ? static_cast<double>(hp_raw_total) /
                             static_cast<double>(hp_enc_total)
                       : 1.0;

  std::printf("\nHP/double single-rank cost ratio: %.1fx (paper: 37-38x)\n",
              h1.modeled / d1.modeled);
  std::printf("HP sum bit-identical across all rank counts: %s\n",
              hp_invariant ? "yes" : "NO");
  std::printf("HP wire bytes (p>=2): raw %llu, encoded %llu (%.2fx)\n",
              static_cast<unsigned long long>(hp_raw_total),
              static_cast<unsigned long long>(hp_enc_total), wire_ratio);

  // --json=PATH: the bench record (bench/common.hpp) tools/bench_smoke.py
  // gates. The per-point timings stay in the printed table (and --csv).
  bench::Record record("fig6_mpi_scaling");
  record.config("format", "HP(6,3)");
  record.config("n", n);
  record.config("seed", static_cast<std::int64_t>(seed));
  record.config("maxp", maxp);
  record.config("dist", dist);
  record.config("algo", algo_name);
  record.config("wire", wire_name);
  record.config("mode", mode_name);
  record.add("wire_raw_bytes", static_cast<double>(hp_raw_total), "B",
             bench::Better::kLower);
  record.add("wire_encoded_bytes", static_cast<double>(hp_enc_total), "B",
             bench::Better::kLower);
  record.add("wire_ratio", wire_ratio, "ratio", bench::Better::kHigher);
  record.add("hp_invariant", hp_invariant ? 1.0 : 0.0, "bool",
             bench::Better::kHigher);
  record.add("uncompressed_points", static_cast<double>(uncompressed_points),
             "count", bench::Better::kLower);
  if (!record.write(args)) return 1;
  if (!hp_invariant) return 1;
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "maxp", "seed", "algo", "wire", "mode", "dist",
                          "csv", "json", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
