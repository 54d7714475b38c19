#include "core/hp_adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpsum {

namespace {
/// The narrowest exact window of `v`'s limbs: starts at limb `first`, has
/// format `cfg`. Drops trailing zero fraction limbs, then leading sign-fill
/// integer limbs while the next limb's top bit still carries the sign.
struct Window {
  std::size_t first;
  HpConfig cfg;
};

Window narrowest(const HpDyn& v) noexcept {
  const util::ConstLimbSpan l = v.limbs();
  const auto int_limbs = static_cast<std::size_t>(v.config().n - v.config().k);
  auto k = static_cast<std::size_t>(v.config().k);
  while (k > 0 && l[int_limbs + k - 1] == 0) --k;
  const std::size_t end = int_limbs + k;
  const util::Limb fill = v.is_negative() ? ~util::Limb{0} : 0;
  std::size_t first = 0;
  while (first < int_limbs && end - first > 1 && l[first] == fill &&
         (l[first + 1] >> 63) == (fill >> 63)) {
    ++first;
  }
  return {first, HpConfig{static_cast<int>(end - first), static_cast<int>(k)}};
}
}  // namespace

HpAdaptive& HpAdaptive::operator+=(double r) {
  if (!std::isfinite(r)) throw std::invalid_argument("HpAdaptive: non-finite summand");
  v_ += r;
  return *this;
}

HpConfig HpAdaptive::config() const noexcept { return narrowest(v_).cfg; }

HpDyn HpAdaptive::value() const {
  const Window w = narrowest(v_);
  HpDyn out(w.cfg);
  std::copy_n(v_.limbs().begin() + static_cast<std::ptrdiff_t>(w.first),
              w.cfg.n, out.limbs().begin());
  out.or_status(v_.status());
  return out;
}

}  // namespace hpsum
