// HpDyn — HP value with a format chosen at runtime.
//
// Same representation and semantics as HpFixed<N,K>, but N and k come from
// an HpConfig. This is the type the message-passing datatypes, the
// parameter-sweep benches, and HpAdaptive build on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hp_config.hpp"
#include "core/hp_status.hpp"
#include "util/limbs.hpp"

namespace hpsum {

/// Runtime-formatted order-invariant accumulator.
class HpDyn {
 public:
  /// Zero value of the given format. Throws std::invalid_argument for an
  /// invalid config and std::length_error beyond kMaxLimbs.
  explicit HpDyn(HpConfig cfg);

  /// Converts a double (exactly if in range; see status()).
  HpDyn(HpConfig cfg, double r);

  /// Parses an exact decimal string ("[-]digits[.digits]") — the inverse
  /// of to_decimal_string(), so HP values round-trip through text logs and
  /// checkpoints losslessly. Throws std::invalid_argument on syntax
  /// errors; range/precision violations come back as status flags
  /// (kConvertOverflow with a zero value, or kInexact).
  static HpDyn from_decimal_string(std::string_view s, HpConfig cfg);

  /// The format.
  [[nodiscard]] HpConfig config() const noexcept { return cfg_; }

  /// Adds a double through the fused scatter-add fast path (mantissa lands
  /// directly in the affected limbs; carry propagates only until it dies).
  HpDyn& operator+=(double r) noexcept;

  /// The original two-step convert+add path, bit-identical to operator+=
  /// in limbs and status; retained as the reference implementation for
  /// differential testing and the scatter ablation bench.
  HpDyn& add_double_reference(double r) noexcept;

  /// Adds a block of doubles through the carry-deferred block fast path
  /// (kernel::block_add/block_flush): bit-identical, limbs and sticky
  /// status, to adding each element with operator+=(double) in order.
  HpDyn& accumulate(std::span<const double> xs) noexcept;

  /// Subtracts a double.
  HpDyn& operator-=(double r) noexcept { return *this += -r; }

  /// Adds another HP value. Formats must match (checked, throws
  /// std::invalid_argument).
  HpDyn& operator+=(const HpDyn& other);

  /// Subtracts another HP value of the same format.
  HpDyn& operator-=(const HpDyn& other);

  /// Two's complement negation in place.
  void negate() noexcept;

  /// Scales by 2^e exactly; see HpFixed::scale_pow2 for semantics.
  void scale_pow2(int e) noexcept;

  /// Divides by a small positive integer (truncation toward zero);
  /// returns the remainder in lsb units. See HpFixed::div_small.
  std::uint64_t div_small(std::uint64_t d) noexcept;

  /// Rounds to the nearest double (ties to even).
  [[nodiscard]] double to_double() const noexcept;

  /// As to_double(), but ORs the conversion status (range overflow /
  /// subnormal truncation) into `st`.
  [[nodiscard]] double to_double(HpStatus& st) const noexcept;

  /// Exact decimal rendering.
  [[nodiscard]] std::string to_decimal_string(std::size_t max_frac_digits = 0) const;

  /// True iff negative.
  [[nodiscard]] bool is_negative() const noexcept;

  /// True iff exactly zero.
  [[nodiscard]] bool is_zero() const noexcept;

  /// Sticky status; see HpStatus.
  [[nodiscard]] HpStatus status() const noexcept { return status_; }
  void clear_status() noexcept { status_ = HpStatus::kOk; }

  /// ORs externally detected conditions into the sticky status (used by
  /// interop code that assembles limbs directly, e.g. Hallberg::to_hp).
  void or_status(HpStatus s) noexcept { status_ |= s; }

  /// Resets to zero and clears status.
  void clear() noexcept;

  /// Bit-exact equality (formats and limbs).
  friend bool operator==(const HpDyn& a, const HpDyn& b) noexcept {
    return a.cfg_ == b.cfg_ && a.limbs_ == b.limbs_;
  }

  /// Raw limbs, big-endian.
  [[nodiscard]] util::ConstLimbSpan limbs() const noexcept {
    return {limbs_.data(), limbs_.size()};
  }
  [[nodiscard]] util::LimbSpan limbs() noexcept {
    return {limbs_.data(), limbs_.size()};
  }

  /// Serialized size in bytes (limbs only; format travels out of band).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return limbs_.size() * sizeof(util::Limb);
  }

  /// Writes the limb-image wire format (docs/FORMAT.md): limbs
  /// most-significant-first, each little-endian, byte_size() bytes total.
  /// The image carries limbs ONLY — the format and the sticky status must
  /// travel out of band (the mpisim reductions OR-reduce a status byte
  /// alongside the values). For self-contained storage such as checkpoints,
  /// use serialize()/deserialize(), which carry format AND status; a raw
  /// to_bytes checkpoint of a flagged partial would restore clean.
  void to_bytes(std::byte* out) const noexcept;

  /// Replaces the limbs from a byte image produced by to_bytes() with the
  /// same format. Does not touch the sticky status (see to_bytes).
  void from_bytes(const std::byte* in) noexcept;

 private:
  HpConfig cfg_;
  std::vector<util::Limb> limbs_;
  HpStatus status_ = HpStatus::kOk;
};

}  // namespace hpsum
