// Sparse limb wire codec for HP payloads (docs/FORMAT.md §"Sparse limb
// wire codec").
//
// The scatter-add analysis (docs/KERNELS.md) shows a typical HP value
// touches only 2-3 of its N limbs: the integer limbs above the value's
// magnitude are all-zero (or all-ones for negative values, which are
// two's-complement sign-filled), and the fraction limbs below its lsb are
// zero. A reduction's wire traffic is therefore mostly redundant fill.
// This codec ships only the informative bytes and folds the 1-byte HP
// status mask into the same message, so a sparse reduction needs no
// second status-only reduction (see hp_ops.hpp).
//
// Message layout (count elements of n limbs each; all sizes in bytes):
//
//   [0]                status   — HpStatus mask, validated on decode
//   [1 ...]            count × element, back to back
//
//   element := map[ceil(n/4)] , explicit-limb*
//     map: 2-bit code per limb, limb i (wire order: most-significant
//          first, as in the raw limb image) at bits 2*(i%4) of byte i/4.
//            0 = implicit all-zero limb  (8 bytes of 0x00)
//            1 = implicit all-ones limb  (8 bytes of 0xFF)
//            2 = explicit limb follows
//            3 = invalid (decode error)
//   explicit-limb := desc , byte[len]     (ascending limb index)
//     desc bits 0-2: offset — index of the first encoded byte (limb
//                    bytes are little-endian, byte j = (limb >> 8j) & 0xFF)
//     desc bits 3-5: len - 1 (1..8 encoded bytes)
//     desc bit 6:    fill for the bytes outside [offset, offset+len):
//                    0 → 0x00, 1 → 0xFF
//     desc bit 7:    reserved, must be 0
//
// The encoder picks per limb whichever fill (0x00 or 0xFF) yields the
// shorter explicit span, so small negative values cost the same as small
// positive ones. Decode validates every code, descriptor, status bit and
// the total message length, throwing std::invalid_argument on malformed
// input — corrupt wire data cannot plant undefined status bits or read
// out of bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpsum::mpisim::wire {

/// Bytes per limb on the wire (and in the raw limb image).
inline constexpr std::size_t kLimbBytes = 8;

/// Upper bound on the encoded size of `count` elements of `n` limbs:
/// status + per-element map + worst-case fully explicit limbs.
[[nodiscard]] constexpr std::size_t encoded_bound(int n,
                                                  std::size_t count) noexcept {
  const std::size_t map_bytes = (static_cast<std::size_t>(n) + 3) / 4;
  const std::size_t per_elem =
      map_bytes + static_cast<std::size_t>(n) * (1 + kLimbBytes);
  return 1 + count * per_elem;
}

/// Encodes `count` raw HP elements like encode(), straight into `out`,
/// which must hold at least encoded_bound(n, count) bytes; returns the
/// encoded size. Allocates nothing.
std::size_t encode_into(const std::byte* raw, std::size_t count, int n,
                        std::uint8_t status, std::byte* out) noexcept;

/// Encodes `count` raw HP elements (`count * n * 8` bytes of raw limb
/// image, most-significant limb first, each limb little-endian) plus a
/// status mask into a sparse message.
[[nodiscard]] std::vector<std::byte> encode(const std::byte* raw,
                                            std::size_t count, int n,
                                            std::uint8_t status);

/// Decodes a sparse message into `raw` (`count * n * 8` bytes) and returns
/// the status mask it carried. Throws std::invalid_argument if the message
/// is truncated, has trailing bytes, uses an invalid limb code or
/// descriptor, or carries undefined status bits.
std::uint8_t decode(const std::byte* msg, std::size_t msg_bytes,
                    std::byte* raw, std::size_t count, int n);

}  // namespace hpsum::mpisim::wire
