// Status flags for HP arithmetic.
//
// The paper (§III.B.1) identifies three places overflow can occur —
// double→HP conversion, HP+HP addition, and HP→double conversion — and
// notes underflow at the conversions. Every kernel in this library reports
// which of these happened via a sticky bitmask instead of silently wrapping,
// so callers can choose between checking per-operation and checking once
// after a multimillion-element reduction.
#pragma once

#include <cstdint>
#include <string>

namespace hpsum {

/// Bitmask of exceptional conditions. Flags are sticky: kernels OR new
/// conditions into an accumulator owned by the caller.
enum class HpStatus : std::uint8_t {
  kOk = 0,
  /// |value| exceeded the HP range during double→HP conversion.
  kConvertOverflow = 1u << 0,
  /// The sum of two in-range HP values left the representable range
  /// (operand signs equal, result sign differs).
  kAddOverflow = 1u << 1,
  /// The HP value exceeded double range when converting back (only possible
  /// for configs whose range tops 2^1024; kept for completeness).
  kToDoubleOverflow = 1u << 2,
  /// The double carried significant bits below the HP lsb; they were
  /// truncated toward zero (the paper's conversion underflow).
  kInexact = 1u << 3,
  /// The HP value has nonzero bits below the smallest double (subnormal
  /// floor); HP→double rounding lost them.
  kToDoubleInexact = 1u << 4,
  /// An operation's precondition was violated (currently: div_small with a
  /// zero divisor). The value is left unchanged; noexcept APIs report the
  /// misuse here instead of invoking UB.
  kInvalidOp = 1u << 5,
};

/// Bitmask of every defined flag. Deserializers validate incoming status
/// bytes against this so corrupt input cannot plant undefined sticky bits.
inline constexpr std::uint8_t kHpStatusMask =
    static_cast<std::uint8_t>(HpStatus::kConvertOverflow) |
    static_cast<std::uint8_t>(HpStatus::kAddOverflow) |
    static_cast<std::uint8_t>(HpStatus::kToDoubleOverflow) |
    static_cast<std::uint8_t>(HpStatus::kInexact) |
    static_cast<std::uint8_t>(HpStatus::kToDoubleInexact) |
    static_cast<std::uint8_t>(HpStatus::kInvalidOp);

/// Combines two status masks.
constexpr HpStatus operator|(HpStatus a, HpStatus b) noexcept {
  return static_cast<HpStatus>(static_cast<std::uint8_t>(a) |
                               static_cast<std::uint8_t>(b));
}

/// Accumulates `b` into `a` (sticky OR).
constexpr HpStatus& operator|=(HpStatus& a, HpStatus b) noexcept {
  a = a | b;
  return a;
}

/// Tests whether `a` contains all flags of `b`.
constexpr bool has(HpStatus a, HpStatus b) noexcept {
  return (static_cast<std::uint8_t>(a) & static_cast<std::uint8_t>(b)) ==
         static_cast<std::uint8_t>(b);
}

/// True iff any overflow flag is set (the conditions that corrupt a sum, as
/// opposed to kInexact which only truncates precision).
constexpr bool any_overflow(HpStatus s) noexcept {
  return (static_cast<std::uint8_t>(s) &
          (static_cast<std::uint8_t>(HpStatus::kConvertOverflow) |
           static_cast<std::uint8_t>(HpStatus::kAddOverflow) |
           static_cast<std::uint8_t>(HpStatus::kToDoubleOverflow))) != 0;
}

/// Human-readable flag list, e.g. "convert-overflow|inexact".
inline std::string to_string(HpStatus s) {
  if (s == HpStatus::kOk) return "ok";
  std::string out;
  const auto append = [&](HpStatus flag, const char* name) {
    if (has(s, flag)) {
      if (!out.empty()) out += '|';
      out += name;
    }
  };
  append(HpStatus::kConvertOverflow, "convert-overflow");
  append(HpStatus::kAddOverflow, "add-overflow");
  append(HpStatus::kToDoubleOverflow, "to-double-overflow");
  append(HpStatus::kInexact, "inexact");
  append(HpStatus::kToDoubleInexact, "to-double-inexact");
  append(HpStatus::kInvalidOp, "invalid-op");
  return out;
}

}  // namespace hpsum
