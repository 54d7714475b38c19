#include "core/reduce.hpp"

#include "trace/flight.hpp"

namespace hpsum {

HpDyn reduce_hp(std::span<const double> xs, HpConfig cfg) {
  const trace::flight::Span local_span(trace::flight::EventId::kLocalReduce,
                                       trace::flight::current_reduction_id(),
                                       xs.size());
  HpDyn acc(cfg);
  acc.accumulate(xs);
  return acc;
}

double reduce_double(std::span<const double> xs) noexcept {
  double naive = 0.0;
  // hplint: allow(fp-accumulate) — the paper's order-sensitive baseline
  for (const double x : xs) naive += x;
  return naive;
}

}  // namespace hpsum
