// Ablation A1: atomic-adder strategy (the §III.B.2 design choice).
//
// The paper claims HP addition is atomic using ONLY compare-and-swap. This
// bench compares that CAS-loop adder against (a) a native fetch_add adder
// and (b) a coarse mutex around a plain HpFixed — under 1..8 contending
// threads hammering one shared accumulator.
//
// Flags: --n (default 256k adds per config), --seed.
#include <cstdio>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/hp_atomic.hpp"
#include "core/reduce.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

enum class Strategy { kCas, kFetchAdd, kMutex };

const char* name(Strategy s) {
  switch (s) {
    case Strategy::kCas: return "CAS loop (paper)";
    case Strategy::kFetchAdd: return "fetch_add";
    case Strategy::kMutex: return "mutex";
  }
  return "?";
}

double run(Strategy strategy, const std::vector<double>& xs, int threads,
           double* result) {
  HpAtomic<6, 3> shared;
  HpFixed<6, 3> locked;
  std::mutex mu;
  util::WallTimer wall;
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < xs.size();
             i += static_cast<std::size_t>(threads)) {
          const HpFixed<6, 3> v(xs[i]);
          switch (strategy) {
            case Strategy::kCas:
              shared.add(v);
              break;
            case Strategy::kFetchAdd:
              shared.add_fetch_add(v);
              break;
            case Strategy::kMutex: {
              const std::lock_guard<std::mutex> lock(mu);
              locked += v;
              break;
            }
          }
        }
      });
    }
  }
  const double seconds = wall.seconds();
  *result = (strategy == Strategy::kMutex) ? locked.to_double()
                                           : shared.load().to_double();
  return seconds;
}

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 256 * 1024, 4 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 9));

  bench::banner("Ablation A1: atomic adder strategy under contention",
                "§III.B.2 design choice: CAS-only atomic HP addition");

  const auto xs = workload::uniform_set(static_cast<std::size_t>(n), seed);
  const double ref = reduce_hp<6, 3>(xs).to_double();

  util::TablePrinter table({"threads", "strategy", "wallclock s", "correct"});
  for (const int threads : {1, 2, 4, 8}) {
    for (const Strategy s :
         {Strategy::kCas, Strategy::kFetchAdd, Strategy::kMutex}) {
      double value = 0;
      const double t = run(s, xs, threads, &value);
      table.begin_row();
      table.add_int(threads);
      table.add_cell(name(s));
      table.add_num(t, 4);
      table.add_cell(value == ref ? "yes" : "NO");
    }
  }
  bench::emit_table(table, args);
  std::printf(
      "\nreading: all three strategies are exact; CAS needs no platform "
      "64-bit fetch_add (CUDA-era constraint) and avoids the mutex's "
      "serialization of the whole %d-limb update.\n", 6);
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "seed", "csv", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
