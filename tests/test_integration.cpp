// End-to-end integration: one scenario exercising the whole library the
// way a real code would — plan a format from data, reduce across the
// message-passing runtime, ship the result through canonical
// serialization and an exact-decimal checkpoint, verify against every
// other backend, and audit the data's order sensitivity.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "backends/accumulators.hpp"
#include "backends/scaling.hpp"
#include "core/hp_plan.hpp"
#include "core/hp_serialize.hpp"
#include "core/reduce.hpp"
#include "cudasim/reduce.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"
#include "phisim/phisim.hpp"
#include "rblas/rblas.hpp"
#include "workload/workload.hpp"

namespace hpsum {
namespace {

TEST(Integration, FullPipelineProducesOneAnswerEverywhere) {
  // 1. The data: an N-body-like accumulation workload.
  const auto xs = workload::nbody_force_set(60000, 424242);

  // 2. Size the format from the data itself.
  const HpConfig cfg = suggest_config(plan_for_data(xs));
  ASSERT_TRUE(satisfies(cfg, plan_for_data(xs)));

  // 3. The reference answer, sequentially.
  const HpDyn ref = reduce_hp(xs, cfg);
  ASSERT_EQ(ref.status(), HpStatus::kOk);
  const std::string ref_decimal = ref.to_decimal_string();

  // 4. Distributed: 12 ranks reduce to the root, and the result is
  //    shipped through canonical serialization.
  std::vector<std::byte> wire;
  mpisim::run(12, [&](mpisim::Comm& comm) {
    const auto slices = backends::partition(xs, comm.size());
    HpDyn local(cfg);
    for (const double x : slices[static_cast<std::size_t>(comm.rank())]) {
      local += x;
    }
    const HpDyn total = mpisim::reduce_hp_value(comm, local, /*root=*/0);
    if (comm.rank() == 0) wire = serialize(total);  // canonical, endian-safe
  });
  const HpDyn distributed = deserialize(wire);
  EXPECT_EQ(distributed, ref);

  // 5. The exact-decimal checkpoint round trip.
  const HpDyn restored = HpDyn::from_decimal_string(ref_decimal, cfg);
  EXPECT_EQ(restored, ref);

  // 6. Other execution backends agree on the rounded answer bit for bit.
  const double answer = ref.to_double();
  EXPECT_EQ((rblas::sum_parallel<8, 4>(xs, 5)),
            (rblas::sum<8, 4>(xs)));  // rblas is self-consistent...
  EXPECT_EQ((backends::run_openmp<backends::HpSum<6, 3>>(xs, 4).value),
            (reduce_hp<6, 3>(xs).to_double()));
  {
    cudasim::Device dev;
    auto* data =
        static_cast<double*>(dev.dmalloc(xs.size() * sizeof(double)));
    dev.memcpy_h2d(data, xs.data(), xs.size() * sizeof(double));
    const auto gpu =
        cudasim::reduce_hp_device_tree<6, 3>(dev, data, xs.size(), 8, 64);
    EXPECT_EQ(gpu.to_double(), (reduce_hp<6, 3>(xs).to_double()));
    dev.dfree(data);
  }
  {
    phisim::OffloadDevice phi;
    const auto point = phi.offload_reduce<backends::HpSum<6, 3>>(xs, 16);
    EXPECT_EQ(point.value, (reduce_hp<6, 3>(xs).to_double()));
  }
  // The planned format and the paper format agree once rounded (both
  // exact sums of the same data).
  EXPECT_EQ((reduce_hp<6, 3>(xs).to_double()), answer);

  // 7. And the audit quantifies why any of this matters.
  const auto report = audit::order_sensitivity(xs, 32, 7);
  EXPECT_EQ(report.exact, answer);
  EXPECT_GT(report.worst_abs_error, 0.0);  // doubles do wobble on this data
}

}  // namespace
}  // namespace hpsum
