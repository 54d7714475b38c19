// Table 2 reproduction: Hallberg parameters (N, M) achieving near
// equivalency with the 512-bit HP method at three summand-count scales.
//
// Paper values: (10, 52, ~2048), (12, 43, ~1M), (14, 37, ~64M).
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "hallberg/hallberg.hpp"
#include "util/table.hpp"

namespace {

using namespace hpsum;

int run(const util::Args& /*args*/) {
  std::printf("=== Table 2: Hallberg parameters for ~512-bit precision ===\n\n");
  util::TablePrinter table(
      {"N", "M", "Precision Bits", "Maximum Summands", "Storage Bits"});
  for (const std::uint64_t summands :
       {(std::uint64_t{1} << 11) - 1, (std::uint64_t{1} << 20) - 1,
        (std::uint64_t{1} << 26) - 1}) {
    const auto p = HallbergParams::solve(512, summands);
    table.begin_row();
    table.add_int(p.n);
    table.add_int(p.m);
    table.add_int(p.precision_bits());
    table.add_int(static_cast<std::int64_t>(p.max_summands()));
    table.add_int(64 * p.n);
  }
  table.print(std::cout);
  std::printf(
      "\npaper Table 2:  N=10 M=52 520 bits <=2048 summands\n"
      "                N=12 M=43 516 bits <=1M\n"
      "                N=14 M=37 518 bits <=64M\n"
      "HP comparator: N=8, k=4 => 511 precision bits in 512 storage bits,\n"
      "no summand-count limit — the storage/overhead contrast of §II.B.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, {}, run);
}
