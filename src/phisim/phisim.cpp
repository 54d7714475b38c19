#include "phisim/phisim.hpp"

#include <stdexcept>

namespace hpsum::phisim {

OffloadDevice::OffloadDevice(PhiProps props) : props_(props) {
  if (props_.max_threads < 1 || props_.transfer_bandwidth <= 0.0) {
    throw std::invalid_argument("phisim: bad PhiProps");
  }
}

double OffloadDevice::upload(std::span<const double> xs) {
  device_buf_.assign(xs.begin(), xs.end());
  return static_cast<double>(xs.size_bytes()) / props_.transfer_bandwidth;
}

int OffloadDevice::clamp_threads(int threads) const {
  if (threads < 1 || threads > props_.max_threads) {
    throw std::invalid_argument("phisim: thread count outside 1..max_threads");
  }
  return threads;
}

}  // namespace hpsum::phisim
