#include "engine/engine.hpp"

#include <cstdint>

#include "core/reduce.hpp"

namespace hpsum::engine {
namespace {

// Engine checkpoint container header (docs/FORMAT.md §engine checkpoint):
// 'H' 'E' version reserved, then a u32 LE frame count. Frames follow as
// u32 LE payload size + one canonical serialized HP image each. The
// container deliberately carries no shard-count semantics beyond the
// frame list — restore() redistributes frames over whatever lanes the
// receiving set has, which is what makes cross-shape restore exact.
constexpr std::byte kMagic0{'H'};
constexpr std::byte kMagic1{'E'};
constexpr std::byte kVersion{1};
constexpr std::size_t kHeaderSize = 8;

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  out.push_back(static_cast<std::byte>(v & 0xff));
  out.push_back(static_cast<std::byte>((v >> 8) & 0xff));
  out.push_back(static_cast<std::byte>((v >> 16) & 0xff));
  out.push_back(static_cast<std::byte>((v >> 24) & 0xff));
}

[[nodiscard]] std::uint32_t get_u32(std::span<const std::byte> b) noexcept {
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

std::vector<std::byte> frame_checkpoint(const std::vector<HpDyn>& frames) {
  std::size_t payload = 0;
  for (const HpDyn& f : frames) payload += 4 + serialized_size(f.config());
  std::vector<std::byte> out;
  out.reserve(kHeaderSize + payload);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(std::byte{0});  // reserved
  put_u32(out, static_cast<std::uint32_t>(frames.size()));
  for (const HpDyn& f : frames) {
    const std::vector<std::byte> image = serialize(f);
    put_u32(out, static_cast<std::uint32_t>(image.size()));
    out.insert(out.end(), image.begin(), image.end());
  }
  return out;
}

std::vector<HpDyn> unframe_checkpoint(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderSize) {
    throw std::invalid_argument("engine checkpoint: truncated header");
  }
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    throw std::invalid_argument("engine checkpoint: bad magic");
  }
  if (bytes[2] != kVersion) {
    throw std::invalid_argument("engine checkpoint: unsupported version");
  }
  const std::uint32_t count = get_u32(bytes.subspan(4));
  // Each frame carries at least its 4-byte size field: check the untrusted
  // count against the input before it sizes an allocation.
  if (count > (bytes.size() - kHeaderSize) / 4) {
    throw std::invalid_argument("engine checkpoint: frame count exceeds input");
  }
  std::vector<HpDyn> frames;
  frames.reserve(count);
  std::size_t off = kHeaderSize;
  for (std::uint32_t j = 0; j < count; ++j) {
    if (bytes.size() - off < 4) {
      throw std::invalid_argument("engine checkpoint: truncated frame size");
    }
    const std::uint32_t fsize = get_u32(bytes.subspan(off));
    off += 4;
    if (bytes.size() - off < fsize) {
      throw std::invalid_argument("engine checkpoint: truncated frame");
    }
    frames.push_back(deserialize(bytes.subspan(off, fsize)));
    off += fsize;
  }
  if (off != bytes.size()) {
    throw std::invalid_argument("engine checkpoint: trailing bytes");
  }
  return frames;
}

HpDyn local_reduce(std::span<const double> xs, HpConfig cfg) {
  return reduce_hp(xs, cfg);
}

}  // namespace hpsum::engine
