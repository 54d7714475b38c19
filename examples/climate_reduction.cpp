// climate_reduction — the other application family the paper names:
// climate-model global reductions.
//
// A climate model computes a global energy budget by summing per-cell
// fluxes. Re-gridding the domain across different processor counts changes
// the partial-sum boundaries, so a double-precision budget differs run to
// run — enough to break bit-for-bit restart validation. This example
// computes the global budget of a synthetic flux field under five domain
// decompositions, locally and through the message-passing runtime, with
// doubles and with HP(6,3).
//
// Build & run:  ./build/examples/climate_reduction
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <vector>

#include "backends/scaling.hpp"
#include "core/reduce.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"
#include "util/prng.hpp"

namespace {

/// Synthetic top-of-atmosphere net flux field on a lat-lon grid:
/// large positive/negative cell values (insolation minus outgoing
/// longwave), near-zero global mean — the cancellation structure that
/// makes the global budget numerically fragile.
std::vector<double> make_flux_field(std::size_t lat_cells,
                                    std::size_t lon_cells,
                                    std::uint64_t seed) {
  hpsum::util::Xoshiro256ss rng(seed);
  std::vector<double> flux;
  flux.reserve(lat_cells * lon_cells);
  for (std::size_t i = 0; i < lat_cells; ++i) {
    const double lat =
        (static_cast<double>(i) + 0.5) / static_cast<double>(lat_cells) *
            std::numbers::pi - std::numbers::pi / 2;
    const double area_weight = std::cos(lat);
    for (std::size_t j = 0; j < lon_cells; ++j) {
      // ~ +/-340 W/m^2 with weather noise, area-weighted.
      const double insolation = 340.0 * std::cos(lat);
      const double outgoing = 340.0 * std::cos(lat) + rng.uniform(-25.0, 25.0);
      flux.push_back((insolation - outgoing) * area_weight);
    }
  }
  return flux;
}

}  // namespace

int main() {
  using namespace hpsum;
  const auto flux = make_flux_field(512, 1024, 42);
  std::printf("global energy budget over %zu cells, five decompositions\n\n",
              flux.size());

  std::printf("%12s  %26s  %26s\n", "subdomains", "double budget (W/m^2 sum)",
              "HP(6,3) budget");
  double first_dbl = 0;
  double first_hp = 0;
  bool dbl_consistent = true;
  bool hp_consistent = true;
  for (const int parts : {1, 4, 16, 64, 256}) {
    const auto slices = backends::partition(flux, parts);
    double dbl_total = 0;
    HpFixed<6, 3> hp_total;
    for (const auto& slice : slices) {
      dbl_total += reduce_double(slice);        // per-subdomain partial
      hp_total += reduce_hp<6, 3>(slice);
    }
    if (parts == 1) {
      first_dbl = dbl_total;
      first_hp = hp_total.to_double();
    }
    dbl_consistent = dbl_consistent && (dbl_total == first_dbl);
    hp_consistent = hp_consistent && (hp_total.to_double() == first_hp);
    std::printf("%12d  %26.17e  %26.17e\n", parts, dbl_total,
                hp_total.to_double());
  }
  std::printf("\ndouble budget identical across decompositions: %s\n",
              dbl_consistent ? "yes (unusual luck)" : "NO — restart breaks");
  std::printf("HP budget identical across decompositions:     %s\n\n",
              hp_consistent ? "yes" : "NO (bug!)");

  // The distributed version: 16 ranks, custom datatype + op, both
  // reduction trees — still bit-identical.
  const HpConfig cfg{6, 3};
  double tree_result = 0;
  double linear_result = 0;
  for (const auto algo :
       {mpisim::ReduceAlgo::kBinomialTree, mpisim::ReduceAlgo::kLinear}) {
    mpisim::run(16, [&](mpisim::Comm& comm) {
      const auto slices = backends::partition(flux, comm.size());
      const HpDyn local =
          reduce_hp(slices[static_cast<std::size_t>(comm.rank())], cfg);
      const HpDyn total = mpisim::reduce_hp_value(comm, local, 0, algo);
      if (comm.rank() == 0) {
        (algo == mpisim::ReduceAlgo::kBinomialTree ? tree_result
                                                   : linear_result) =
            total.to_double();
      }
    });
  }
  std::printf("mpisim 16 ranks, tree reduce:   %.17e\n", tree_result);
  std::printf("mpisim 16 ranks, linear reduce: %.17e\n", linear_result);
  const bool distributed_ok =
      tree_result == linear_result && tree_result == first_hp;
  std::printf("distributed == local == decomposition-invariant: %s\n",
              distributed_ok ? "yes" : "NO (bug!)");
  return hp_consistent && distributed_ok ? 0 : 1;
}
