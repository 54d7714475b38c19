#include "core/hp_dyn.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/hp_convert.hpp"
#include "util/decimal.hpp"

namespace hpsum {

HpDyn::HpDyn(HpConfig cfg) : cfg_(cfg) {
  validate(cfg);
  if (cfg.n > kMaxLimbs) {
    throw std::length_error("HpDyn: limb count exceeds kMaxLimbs");
  }
  limbs_.assign(static_cast<std::size_t>(cfg.n), 0);
}

HpDyn::HpDyn(HpConfig cfg, double r) : HpDyn(cfg) { *this += r; }

HpDyn HpDyn::from_decimal_string(std::string_view s, HpConfig cfg) {
  HpDyn out(cfg);
  switch (util::parse_decimal(s, out.limbs(),
                              static_cast<std::size_t>(cfg.k))) {
    case util::ParseResult::kOk:
      break;
    case util::ParseResult::kInexact:
      out.status_ |= HpStatus::kInexact;
      break;
    case util::ParseResult::kOverflow:
      out.status_ |= HpStatus::kConvertOverflow;
      break;
    case util::ParseResult::kSyntax:
      throw std::invalid_argument("HpDyn: invalid decimal string");
  }
  return out;
}

HpDyn& HpDyn::operator+=(double r) noexcept {
  // Fused scatter-add fast path — bit-identical (limbs and status) to the
  // reference hp_from_double-into-a-temporary + hp_add pair, which remains
  // available as add_double_reference() for differential testing.
  status_ |= hp_scatter_add(limbs(), cfg_, r);
  return *this;
}

HpDyn& HpDyn::accumulate(std::span<const double> xs) noexcept {
  const int n = cfg_.n;
  // n+1 plane slots (kernel::block_flush's layout: slot 0 is the pad);
  // sized for the widest format, but the block kernels touch only slots
  // [0, n], so only those are zeroed.
  kernel::U128 pos[kMaxLimbs + 1];
  kernel::U128 neg[kMaxLimbs + 1];
  std::fill_n(pos, n + 1, kernel::U128{0});
  std::fill_n(neg, n + 1, kernel::U128{0});
  int bound_exp = kernel::block_bound_exp(limbs_.data(), n);
  int pending = 0;
  status_ |= kernel::block_accumulate(limbs_.data(), pos, neg, n, cfg_.k,
                                      bound_exp, pending, xs);
  kernel::block_flush(limbs_.data(), pos, neg, n, bound_exp, pending);
  return *this;
}

HpDyn& HpDyn::add_double_reference(double r) noexcept {
  trace::count(trace::Counter::kReferenceAddCalls);
  util::Limb tmp[kMaxLimbs];
  const auto span = util::LimbSpan(tmp, limbs_.size());
  const HpStatus cst = hp_from_double(r, span, cfg_);
  trace::count_status(cst);  // hp_add's add_impl counts its own raises
  status_ |= cst;
  status_ |= hp_add(limbs(), span);
  return *this;
}

HpDyn& HpDyn::operator+=(const HpDyn& other) {
  if (other.cfg_ != cfg_) {
    throw std::invalid_argument("HpDyn: mixed formats in +=");
  }
  status_ |= other.status_;
  status_ |= hp_add(limbs(), other.limbs());
  return *this;
}

HpDyn& HpDyn::operator-=(const HpDyn& other) {
  if (other.cfg_ != cfg_) {
    throw std::invalid_argument("HpDyn: mixed formats in -=");
  }
  status_ |= other.status_;
  status_ |= kernel::sub(limbs_.data(), other.limbs_.data(), cfg_.n);
  return *this;
}

void HpDyn::negate() noexcept {
  status_ |= kernel::negate(limbs_.data(), cfg_.n);
}

void HpDyn::scale_pow2(int e) noexcept {
  const int n = cfg_.n;
  const bool neg = is_negative();
  const auto span = limbs();
  if (neg) util::negate_twos(span);
  if (e > 0) {
    const int msb = util::highest_set_bit(span);
    if (msb >= 0 && msb + e >= 64 * n - 1) status_ |= HpStatus::kAddOverflow;
    util::shift_left_limbs(span, static_cast<std::size_t>(e / 64));
    util::shift_left_bits(span, static_cast<unsigned>(e % 64));
  } else if (e < 0) {
    const int s = -e;
    for (int b = 0; b < s && b < 64 * n; ++b) {
      const int li = n - 1 - b / 64;
      if ((limbs_[static_cast<std::size_t>(li)] >> (b % 64)) & 1u) {
        status_ |= HpStatus::kInexact;
        break;
      }
    }
    util::shift_right_limbs(span, static_cast<std::size_t>(s / 64));
    util::shift_right_bits(span, static_cast<unsigned>(s % 64));
  }
  if (neg) util::negate_twos(span);
}

std::uint64_t HpDyn::div_small(std::uint64_t d) noexcept {
  if (d == 0) {
    // util::divmod_small requires d != 0; this is a public noexcept API, so
    // report the misuse through the sticky status instead of UB.
    status_ |= HpStatus::kInvalidOp;
    return 0;
  }
  const bool neg = is_negative();
  const auto span = limbs();
  if (neg) util::negate_twos(span);
  const std::uint64_t rem = util::divmod_small(span, d);
  if (neg) util::negate_twos(span);
  if (rem != 0) status_ |= HpStatus::kInexact;
  return rem;
}

double HpDyn::to_double() const noexcept {
  double out = 0.0;
  // hplint: allow(discard-status) — value-only query on a const object;
  // callers who care use the to_double(HpStatus&) overload below
  hp_to_double(limbs(), cfg_, &out);
  return out;
}

double HpDyn::to_double(HpStatus& st) const noexcept {
  double out = 0.0;
  st |= hp_to_double(limbs(), cfg_, &out);
  return out;
}

std::string HpDyn::to_decimal_string(std::size_t max_frac_digits) const {
  return util::to_decimal_string(limbs(), static_cast<std::size_t>(cfg_.k),
                                 max_frac_digits);
}

bool HpDyn::is_negative() const noexcept { return (limbs_[0] >> 63) != 0; }

bool HpDyn::is_zero() const noexcept { return util::is_zero(limbs()); }

void HpDyn::clear() noexcept {
  std::fill(limbs_.begin(), limbs_.end(), 0);
  status_ = HpStatus::kOk;
}

void HpDyn::to_bytes(std::byte* out) const noexcept {
  // Explicit little-endian so the wire image matches serialize()'s limb
  // encoding on every host (docs/FORMAT.md "Limb-image wire format"). The
  // image carries limbs ONLY: the sticky status (and the format) must
  // travel out of band — see serialize() for the self-describing container.
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const util::Limb v = limbs_[i];
    for (int b = 0; b < 8; ++b) {
      out[8 * i + static_cast<std::size_t>(b)] =
          static_cast<std::byte>(v >> (8 * b));
    }
  }
}

void HpDyn::from_bytes(const std::byte* in) noexcept {
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    util::Limb v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<util::Limb>(in[8 * i + static_cast<std::size_t>(b)])
           << (8 * b);
    }
    limbs_[i] = v;
  }
}

}  // namespace hpsum
