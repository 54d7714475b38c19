// phisim — a coprocessor offload model (the Xeon Phi substitute).
//
// The paper's Fig 8 uses the Phi's heterogeneous offload model: the host
// ships the summand array across PCIe to the card, a team of up to 240
// threads computes partial sums, and the result returns to the host. Its
// two observations are (a) high-precision cost amortizes as threads are
// added and (b) at high thread counts runtime is dominated by the
// host<->device transfer. This simulator preserves both (DESIGN.md §2):
// buffers are physically copied into a device arena with a modeled PCIe
// transfer cost, and the compute phase is a real thread-team reduction with
// per-thread busy accounting.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "backends/scaling.hpp"
#include "util/timer.hpp"

namespace hpsum::phisim {

/// Simulated card properties (defaults: Xeon Phi 5110P as in the paper).
struct PhiProps {
  int max_threads = 240;            ///< 60 cores x 4 hardware threads
  double transfer_bandwidth = 6.0e9;  ///< modeled PCIe bytes/second
};

/// Timing report for one offloaded reduction.
struct OffloadPoint {
  int threads = 1;
  double value = 0.0;
  double transfer_seconds = 0;  ///< modeled PCIe time for the input array
  double busy_max = 0;          ///< slowest device thread's busy time (s)
  double merge_time = 0;        ///< master-thread partial combine (s)
  double modeled_wall = 0;      ///< transfer + busy_max + merge
  double measured_wall = 0;     ///< actual host wallclock
};

/// One simulated coprocessor with a persistent device arena.
class OffloadDevice {
 public:
  explicit OffloadDevice(PhiProps props = {});

  [[nodiscard]] const PhiProps& props() const noexcept { return props_; }

  /// Offloads `xs` (copy + modeled transfer), reduces it with `threads`
  /// device threads using accumulator Acc, and returns value + timing.
  /// With Acc = backends::HpSum the per-thread inner loop is the
  /// scatter-add fast path (core/hp_convert.hpp), so the amortization
  /// curve in busy_max reflects the deposit cost, not convert+add.
  /// Throws std::invalid_argument if threads exceeds props().max_threads.
  template <class Acc>
  OffloadPoint offload_reduce(std::span<const double> xs, int threads) {
    const trace::flight::Span offload_span(
        trace::flight::EventId::kPhiOffload,
        trace::flight::current_reduction_id(), xs.size_bytes());
    const double transfer = upload(xs);
    const std::span<const double> device_view(device_buf_.data(),
                                              device_buf_.size());
    util::WallTimer wall;
    const backends::ScalingPoint p =
        backends::run_threads<Acc>(device_view, clamp_threads(threads));
    OffloadPoint out;
    out.threads = p.pes;
    out.value = p.value;
    out.transfer_seconds = transfer;
    out.busy_max = p.busy_max;
    out.merge_time = p.merge_time;
    out.modeled_wall = transfer + p.busy_max + p.merge_time;
    out.measured_wall = wall.seconds();
    return out;
  }

 private:
  /// Copies xs into the device arena; returns the modeled transfer time.
  double upload(std::span<const double> xs);
  [[nodiscard]] int clamp_threads(int threads) const;

  PhiProps props_;
  std::vector<double> device_buf_;
};

}  // namespace hpsum::phisim
