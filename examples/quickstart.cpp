// quickstart — the 60-second tour of hpsum.
//
// Demonstrates the problem (parallel double sums depend on summation order)
// and the fix (HP sums are bit-identical for every order), plus the pieces
// you will actually use: HpFixed, HpAtomic, and HpAdaptive.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "hpsum.hpp"
#include "workload/workload.hpp"

int main() {
  using namespace hpsum;

  // A data set whose true sum is exactly zero: n/2 random values in
  // [0, 1e-3] and their negations (the paper's §II.A construction).
  std::vector<double> xs = workload::cancellation_set(1024, /*seed=*/7);

  // --- The problem: double sums depend on the order of addition. --------
  const double forward = reduce_double(xs);
  workload::shuffle(xs, /*seed=*/99);
  const double shuffled = reduce_double(xs);
  std::printf("double sum, original order : % .17e\n", forward);
  std::printf("double sum, shuffled order : % .17e\n", shuffled);
  std::printf("  (both should be 0; neither is, and they differ: %s)\n\n",
              forward == shuffled ? "no" : "yes");

  // --- The fix: an HP accumulator. N=3 limbs, k=2 fractional. -----------
  HpFixed<3, 2> hp;
  for (const double x : xs) hp += x;
  std::printf("HP(3,2) sum                : % .17e\n", hp.to_double());
  std::printf("HP(3,2) exact decimal      : %s\n", hp.to_decimal_string().c_str());
  std::printf("HP(3,2) status             : %s\n\n", to_string(hp.status()).c_str());

  // Order invariance: sum the shuffled data again — bit-identical result.
  workload::shuffle(xs, /*seed=*/123);
  HpFixed<3, 2> hp2;
  for (const double x : xs) hp2 += x;
  std::printf("HP sums bit-identical across orders: %s\n\n",
              hp == hp2 ? "yes" : "NO (bug!)");

  // --- Thread-safe accumulation with CAS only (works like CUDA's). ------
  HpAtomic<3, 2> shared;
  for (const double x : xs) shared.add(x);  // call this from any thread
  std::printf("HpAtomic result            : % .17e\n", shared.load().to_double());

  // --- Don't know your data's range? HpAdaptive covers every double. ---
  HpAdaptive adaptive;
  adaptive += 1e18;
  adaptive += -1e-30;
  adaptive += 1e18;
  std::printf("HpAdaptive 1e18-1e-30+1e18 : %s (narrowest format N=%d, k=%d)\n",
              adaptive.to_decimal_string(40).c_str(), adaptive.config().n,
              adaptive.config().k);
  return 0;
}
