// adaptive_range — the paper's §V future-work feature in action.
//
// "One flaw with this technique is the reliance on the user knowing the
// range of real numbers to be summed" — this example streams data whose
// dynamic range is unknown in advance (magnitudes from 1e-25 to 1e+25,
// heavy cancellation) through three accumulators:
//   1. a fixed HP(2,1) sized for "ordinary" data — overflows, and says so;
//   2. plain double — silently absorbs a huge relative error;
//   3. HpAdaptive — accumulates over the full double range and returns the
//      exact sum, reporting the narrowest format that holds it.
//
// Build & run:  ./build/examples/adaptive_range (exits 1 if the sum is not
// exact; registered as a ctest).
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/hp_adaptive.hpp"
#include "core/hp_fixed.hpp"
#include "util/prng.hpp"

int main() {
  using namespace hpsum;

  // A hostile stream: pairs (+v, -v) at wild magnitudes (so the true sum of
  // the pairs is zero), plus one tiny survivor the noise must not swallow.
  util::Xoshiro256ss rng(77);
  std::vector<double> stream;
  const double survivor = 3.0e-20;
  stream.push_back(survivor);
  for (int i = 0; i < 20000; ++i) {
    const int e = static_cast<int>(rng.bounded(167)) - 83;  // 2^-83 .. 2^83
    const double v = std::ldexp(1.0 + rng.uniform01(), e);
    stream.push_back(v);
    stream.push_back(-v);
  }

  std::printf("stream: 40001 values, |x| in [~1e-25, ~1e+25], true sum %g\n\n",
              survivor);

  // 1. Fixed HP sized without knowing the range.
  HpFixed<2, 1> fixed;
  for (const double x : stream) fixed += x;
  std::printf("HP(2,1) fixed    : %.6e   status: %s\n", fixed.to_double(),
              to_string(fixed.status()).c_str());

  // 2. Plain double.
  double dbl = 0;
  for (const double x : stream) dbl += x;
  std::printf("double           : %.6e   relative error: %.1e\n", dbl,
              std::fabs(dbl - survivor) / survivor);

  // 3. Adaptive HP.
  HpAdaptive adaptive;
  for (const double x : stream) adaptive += x;
  std::printf("HpAdaptive       : %.6e   narrowest format N=%d (k=%d)\n",
              adaptive.to_double(), adaptive.config().n, adaptive.config().k);
  std::printf("exact decimal    : %s\n",
              adaptive.to_decimal_string(40).c_str());

  const bool exact = adaptive.to_double() == survivor;
  std::printf("\nadaptive result exact: %s — no a-priori range knowledge "
              "needed (paper §V).\n",
              exact ? "yes" : "NO (bug!)");
  return exact ? 0 : 1;
}
