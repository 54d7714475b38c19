#include "mpisim/wire.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/hp_status.hpp"

namespace hpsum::mpisim::wire {

namespace {

constexpr std::uint8_t kCodeZeros = 0;
constexpr std::uint8_t kCodeOnes = 1;
constexpr std::uint8_t kCodeExplicit = 2;

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("mpisim::wire: malformed message: " + what);
}

/// The limb as one word whose bits 8j..8j+7 are limb[j] (the wire's byte
/// order), on hosts of either endianness.
std::uint64_t load_limb(const std::byte* limb) {
  std::uint64_t w = 0;
  std::memcpy(&w, limb, kLimbBytes);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// The bytes of a limb that differ from its fill: `diff` is the limb XOR
/// the fill word, nonzero; first = lowest differing byte.
struct Span {
  std::size_t first;
  std::size_t len;
};

Span span_of(std::uint64_t diff) {
  const auto first = static_cast<std::size_t>(std::countr_zero(diff)) / 8;
  const auto last = 7 - static_cast<std::size_t>(std::countl_zero(diff)) / 8;
  return {first, last - first + 1};
}

}  // namespace

std::size_t encode_into(const std::byte* raw, std::size_t count, int n,
                        std::uint8_t status, std::byte* out) noexcept {
  const std::size_t map_bytes = (static_cast<std::size_t>(n) + 3) / 4;
  std::byte* p = out;
  *p++ = static_cast<std::byte>(status);
  for (std::size_t e = 0; e < count; ++e) {
    const std::byte* elem = raw + e * static_cast<std::size_t>(n) * kLimbBytes;
    std::byte* map = p;
    std::memset(map, 0, map_bytes);  // every limb starts as kCodeZeros
    p += map_bytes;
    for (int i = 0; i < n; ++i) {
      const std::byte* limb = elem + static_cast<std::size_t>(i) * kLimbBytes;
      const std::uint64_t w = load_limb(limb);
      std::uint8_t code = kCodeExplicit;
      if (w == 0) {
        code = kCodeZeros;
      } else if (w == ~std::uint64_t{0}) {
        code = kCodeOnes;
      } else {
        const Span zero_span = span_of(w);
        const Span ones_span = span_of(~w);
        const bool use_ones = ones_span.len < zero_span.len;
        const Span s = use_ones ? ones_span : zero_span;
        *p++ = static_cast<std::byte>(s.first | ((s.len - 1) << 3) |
                                      (use_ones ? 0x40u : 0u));
        std::memcpy(p, limb + s.first, s.len);
        p += s.len;
      }
      if (code != kCodeZeros) {
        map[static_cast<std::size_t>(i) / 4] |=
            static_cast<std::byte>(code << (2 * (i % 4)));
      }
    }
  }
  return static_cast<std::size_t>(p - out);
}

std::vector<std::byte> encode(const std::byte* raw, std::size_t count, int n,
                              std::uint8_t status) {
  std::vector<std::byte> out(encoded_bound(n, count));
  out.resize(encode_into(raw, count, n, status, out.data()));
  return out;
}

std::uint8_t decode(const std::byte* msg, std::size_t msg_bytes,
                    std::byte* raw, std::size_t count, int n) {
  const std::size_t map_bytes = (static_cast<std::size_t>(n) + 3) / 4;
  std::size_t pos = 0;
  const auto need = [&](std::size_t bytes, const char* what) {
    if (msg_bytes - pos < bytes) malformed(std::string("truncated ") + what);
  };
  need(1, "status byte");
  const auto status = static_cast<std::uint8_t>(msg[pos++]);
  if ((status & ~kHpStatusMask) != 0) malformed("undefined status bits");
  for (std::size_t e = 0; e < count; ++e) {
    std::byte* elem = raw + e * static_cast<std::size_t>(n) * kLimbBytes;
    need(map_bytes, "limb map");
    const std::byte* map = msg + pos;
    pos += map_bytes;
    for (int i = 0; i < n; ++i) {
      const auto code = static_cast<std::uint8_t>(
          (static_cast<std::uint8_t>(map[static_cast<std::size_t>(i) / 4]) >>
           (2 * (i % 4))) &
          0x3u);
      std::byte* limb = elem + static_cast<std::size_t>(i) * kLimbBytes;
      if (code == kCodeZeros || code == kCodeOnes) {
        std::memset(limb, code == kCodeZeros ? 0x00 : 0xFF, kLimbBytes);
        continue;
      }
      if (code != kCodeExplicit) malformed("invalid limb code");
      need(1, "limb descriptor");
      const auto desc = static_cast<std::uint8_t>(msg[pos++]);
      if ((desc & 0x80u) != 0) malformed("reserved descriptor bit set");
      const std::size_t first = desc & 0x7u;
      const std::size_t len = ((desc >> 3) & 0x7u) + 1;
      if (first + len > kLimbBytes) malformed("limb span out of range");
      need(len, "limb bytes");
      std::memset(limb, (desc & 0x40u) != 0 ? 0xFF : 0x00, kLimbBytes);
      std::memcpy(limb + first, msg + pos, len);
      pos += len;
    }
  }
  if (pos != msg_bytes) malformed("trailing bytes");
  return status;
}

}  // namespace hpsum::mpisim::wire
