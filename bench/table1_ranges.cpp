// Table 1 reproduction: maximum range and smallest representable number of
// the HP method for the paper's (N, k) configurations.
//
// Paper values: (2,1) ±9.223372e18 / 5.421011e-20; (3,2) ±9.223372e18 /
// 2.938736e-39; (6,3) ±3.138551e57 / 1.593092e-58; (8,4) ±5.789604e76 /
// 8.636169e-78. (The paper's "Bits" column misprints 256 for N=6; total
// bits are 64N — see DESIGN.md §7.)
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/hp_config.hpp"
#include "util/table.hpp"

namespace {

using namespace hpsum;

int run(const util::Args& /*args*/) {
  std::printf("=== Table 1: HP method range and resolution ===\n\n");
  util::TablePrinter table({"N", "k", "Bits", "Max Range", "Smallest"});
  for (const HpConfig cfg :
       {HpConfig{2, 1}, HpConfig{3, 2}, HpConfig{6, 3}, HpConfig{8, 4}}) {
    table.begin_row();
    table.add_int(cfg.n);
    table.add_int(cfg.k);
    table.add_int(64 * cfg.n);
    char buf[64];
    std::snprintf(buf, sizeof buf, "±%.6e", max_range(cfg));
    table.add_cell(buf);
    std::snprintf(buf, sizeof buf, "%.6e", smallest(cfg));
    table.add_cell(buf);
  }
  table.print(std::cout);
  std::printf(
      "\npaper Table 1:   (2,1) ±9.223372e18 / 5.421011e-20\n"
      "                 (3,2) ±9.223372e18 / 2.938736e-39\n"
      "                 (6,3) ±3.138551e57 / 1.593092e-58\n"
      "                 (8,4) ±5.789604e76 / 8.636169e-78\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, {}, run);
}
