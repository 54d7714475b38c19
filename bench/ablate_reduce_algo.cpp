// Ablation A7: reduction algorithm (linear vs binomial tree).
//
// The paper's MPI experiment uses MPI_Reduce and inherits whatever
// algorithm the library picks. mpisim implements four topologies; this
// bench compares the two rooted-reduce shapes (linear and binomial tree;
// fig6_mpi_scaling --algo sweeps all four), isolates the COMBINE phase
// (p partial HP/double sums already computed) and measures its cost and —
// the reason HP exists — whether the result depends on the shape (double:
// yes; HP: never).
//
// Flags: --maxp (default 128), --payload (hp|double, both always run),
//        --trials (default 5).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "backends/scaling.hpp"
#include "common.hpp"
#include "core/reduce.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

struct Point {
  double seconds = 0;  ///< wallclock of the combine phase (all ranks)
  double value = 0;
};

template <class MakeBytes, class Finish>
Point combine_phase(int ranks, const mpisim::Datatype& dt,
                    const mpisim::Op& op, mpisim::ReduceAlgo algo,
                    MakeBytes make, Finish finish, int trials) {
  Point out;
  out.seconds = 1e300;
  for (int t = 0; t < trials; ++t) {
    double elapsed = 0;
    mpisim::run(ranks, [&](mpisim::Comm& comm) {
      const std::vector<std::byte> send = make(comm.rank());
      std::vector<std::byte> recv(send.size());
      comm.barrier();  // isolate the combine phase
      util::WallTimer timer;
      comm.reduce(send.data(), recv.data(), 1, dt, op, 0, algo);
      if (comm.rank() == 0) {
        elapsed = timer.seconds();
        out.value = finish(recv);
      }
    });
    out.seconds = std::min(out.seconds, elapsed);
  }
  return out;
}

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto maxp = static_cast<int>(args.get_int("maxp", 128));
  const auto trials = static_cast<int>(args.get_int("trials", 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 16));

  bench::banner("Ablation A7: reduce algorithm (linear vs binomial tree)",
                "Fig 6 infrastructure choice: op-application order differs "
                "between algorithms — only HP is immune");

  // Per-rank partial values, fixed across algorithms.
  const auto partials = workload::uniform_set(static_cast<std::size_t>(maxp),
                                              seed, -1e8, 1e8);
  const HpConfig cfg{6, 3};

  util::TablePrinter table({"ranks", "t_linear s", "t_tree s",
                            "double linear==tree", "HP linear==tree"});
  for (int p = 2; p <= maxp; p *= 4) {
    const auto make_f64 = [&](int rank) {
      std::vector<std::byte> bytes(sizeof(double));
      std::memcpy(bytes.data(), &partials[static_cast<std::size_t>(rank)],
                  sizeof(double));
      return bytes;
    };
    const auto finish_f64 = [](const std::vector<std::byte>& bytes) {
      double v = 0;
      std::memcpy(&v, bytes.data(), sizeof v);
      return v;
    };
    const auto make_hp = [&](int rank) {
      const HpDyn v(cfg, partials[static_cast<std::size_t>(rank)]);
      std::vector<std::byte> bytes(v.byte_size());
      v.to_bytes(bytes.data());
      return bytes;
    };
    const auto finish_hp = [&](const std::vector<std::byte>& bytes) {
      HpDyn v(cfg);
      v.from_bytes(bytes.data());
      return v.to_double();
    };

    const auto d_lin =
        combine_phase(p, mpisim::Datatype::f64(), mpisim::f64_sum_op(),
                      mpisim::ReduceAlgo::kLinear, make_f64, finish_f64, trials);
    const auto d_tree =
        combine_phase(p, mpisim::Datatype::f64(), mpisim::f64_sum_op(),
                      mpisim::ReduceAlgo::kBinomialTree, make_f64, finish_f64,
                      trials);
    const auto h_lin =
        combine_phase(p, mpisim::hp_datatype(cfg), mpisim::hp_sum_op(cfg),
                      mpisim::ReduceAlgo::kLinear, make_hp, finish_hp, trials);
    const auto h_tree =
        combine_phase(p, mpisim::hp_datatype(cfg), mpisim::hp_sum_op(cfg),
                      mpisim::ReduceAlgo::kBinomialTree, make_hp, finish_hp,
                      trials);
    table.begin_row();
    table.add_int(p);
    table.add_num(h_lin.seconds, 4);
    table.add_num(h_tree.seconds, 4);
    table.add_cell(d_lin.value == d_tree.value ? "yes" : "NO");
    table.add_cell(h_lin.value == h_tree.value ? "yes" : "NO (bug!)");
  }
  bench::emit_table(table, args);
  std::printf(
      "\nreading: the tree's log2(p) critical path beats linear's p-1 chain "
      "at scale; the double results typically split between algorithms "
      "while HP is identical by construction.\n");
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"maxp", "trials", "seed", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
