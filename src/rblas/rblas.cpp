#include "rblas/rblas.hpp"

#include <cmath>

#include "core/hp_dyn.hpp"

namespace hpsum::rblas {

double sum(std::span<const double> x, HpConfig cfg) {
  return reduce_hp(x, cfg).to_double();
}

double asum(std::span<const double> x, HpConfig cfg) {
  // Stage |x| values into a small buffer and deposit each block through
  // the block fast path; bit-identical to the acc += fabs(v) loop.
  HpDyn acc(cfg);
  double buf[2 * detail::kDotChunk];
  std::size_t fill = 0;
  for (const double v : x) {
    buf[fill++] = std::fabs(v);
    if (fill == 2 * detail::kDotChunk) {
      acc.accumulate(std::span<const double>(buf, fill));
      fill = 0;
    }
  }
  if (fill != 0) acc.accumulate(std::span<const double>(buf, fill));
  return acc.to_double();
}

double dot(std::span<const double> x, std::span<const double> y,
           HpConfig cfg) {
  return dot_hp(x, y, cfg).to_double();
}

double nrm2(std::span<const double> x, HpConfig cfg) {
  return std::sqrt(dot_hp(x, x, cfg).to_double());
}

}  // namespace hpsum::rblas
