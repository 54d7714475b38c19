// Tests for the sparse limb wire codec (src/mpisim/wire.hpp): exact
// round-trips over structured corpora and random fuzz, compression on
// realistic HP values, and rejection of every class of malformed message.
#include "mpisim/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/hp_dyn.hpp"
#include "core/hp_status.hpp"
#include "util/prng.hpp"
#include "workload/workload.hpp"

namespace hpsum::mpisim::wire {
namespace {

using Image = std::vector<std::byte>;

Image roundtrip(const Image& raw, std::size_t count, int n,
                std::uint8_t status_in, std::uint8_t* status_out = nullptr) {
  const Image msg = encode(raw.data(), count, n, status_in);
  EXPECT_LE(msg.size(), encoded_bound(n, count));
  Image back(raw.size(), std::byte{0xA5});  // poison: decode must overwrite
  const std::uint8_t st = decode(msg.data(), msg.size(), back.data(), count, n);
  if (status_out != nullptr) *status_out = st;
  return back;
}

void expect_roundtrip(const Image& raw, std::size_t count, int n,
                      std::uint8_t status_in) {
  std::uint8_t status_out = 0xFF;
  const Image back = roundtrip(raw, count, n, status_in, &status_out);
  EXPECT_EQ(back, raw);
  EXPECT_EQ(status_out, status_in);
}

/// Raw image of `count` x `n` limbs, every byte `fill`.
Image filled(std::size_t count, int n, std::byte fill) {
  return Image(count * static_cast<std::size_t>(n) * kLimbBytes, fill);
}

/// The codec's byte layout written the plain way: one byte loop per fill,
/// the shorter span wins and a tie goes to the 0x00 fill. encode() must
/// produce exactly these bytes.
Image reference_encode(const Image& raw, std::size_t count, int n,
                       std::uint8_t status) {
  struct Span {
    std::size_t first = 0;
    std::size_t len = 0;  // 0: every byte equals the fill
  };
  const auto span_vs = [](const std::byte* limb, std::byte fill) {
    Span s;
    for (std::size_t j = 0; j < kLimbBytes; ++j) {
      if (limb[j] == fill) continue;
      if (s.len == 0) s.first = j;
      s.len = j - s.first + 1;
    }
    return s;
  };
  Image out{static_cast<std::byte>(status)};
  for (std::size_t e = 0; e < count; ++e) {
    const std::size_t map_at = out.size();
    out.resize(map_at + (static_cast<std::size_t>(n) + 3) / 4);
    for (int i = 0; i < n; ++i) {
      const std::byte* limb =
          raw.data() +
          (e * static_cast<std::size_t>(n) + static_cast<std::size_t>(i)) *
              kLimbBytes;
      const Span zeros = span_vs(limb, std::byte{0x00});
      const Span ones = span_vs(limb, std::byte{0xFF});
      unsigned code = 2;
      if (zeros.len == 0) {
        code = 0;
      } else if (ones.len == 0) {
        code = 1;
      } else {
        const bool use_ones = ones.len < zeros.len;
        const Span sp = use_ones ? ones : zeros;
        out.push_back(static_cast<std::byte>(
            sp.first | ((sp.len - 1) << 3) | (use_ones ? 0x40u : 0u)));
        out.insert(out.end(), limb + sp.first, limb + sp.first + sp.len);
      }
      out[map_at + static_cast<std::size_t>(i) / 4] |=
          static_cast<std::byte>(code << (2 * (i % 4)));
    }
  }
  return out;
}

TEST(MpisimWire, AllZeroElementsCostOnlyStatusAndMap) {
  for (const int n : {1, 2, 6, 16}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{17}}) {
      const Image raw = filled(count, n, std::byte{0x00});
      expect_roundtrip(raw, count, n, 0);
      const Image msg = encode(raw.data(), count, n, 0);
      // status + count maps, no explicit limbs at all.
      const std::size_t map_bytes = (static_cast<std::size_t>(n) + 3) / 4;
      EXPECT_EQ(msg.size(), 1 + count * map_bytes);
    }
  }
}

TEST(MpisimWire, AllOnesElementsAreImplicitToo) {
  // -1 in two's complement: every limb 0xFF..FF — the sign-fill pattern of
  // small negative HP values, as cheap as all-zero.
  for (const int n : {1, 6}) {
    const Image raw = filled(2, n, std::byte{0xFF});
    expect_roundtrip(raw, 2, n, 0);
    const Image msg = encode(raw.data(), 2, n, 0);
    const std::size_t map_bytes = (static_cast<std::size_t>(n) + 3) / 4;
    EXPECT_EQ(msg.size(), 1 + 2 * map_bytes);
  }
}

TEST(MpisimWire, DenseElementsRoundTripAtBoundedOverhead) {
  util::Xoshiro256ss rng(0xD15EA5E);
  for (const int n : {1, 4, 16}) {
    Image raw = filled(3, n, std::byte{0x00});
    for (auto& b : raw) b = static_cast<std::byte>(rng.next() & 0xFF);
    expect_roundtrip(raw, 3, n, 0);
  }
}

TEST(MpisimWire, SingleLimbSpansTrimToInformativeBytes) {
  const int n = 6;
  for (int limb = 0; limb < n; ++limb) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{3},
                                 std::size_t{7}}) {
      Image raw = filled(1, n, std::byte{0x00});
      raw[static_cast<std::size_t>(limb) * kLimbBytes + at] = std::byte{0x42};
      expect_roundtrip(raw, 1, n, 0);
      // map(2) + desc(1) + one explicit byte on top of the status byte.
      const Image msg = encode(raw.data(), 1, n, 0);
      EXPECT_EQ(msg.size(), std::size_t{1} + 2 + 1 + 1) << "limb=" << limb;
    }
  }
}

TEST(MpisimWire, SpansStraddlingTheStatusFillBoundaryRoundTrip) {
  // Values whose explicit span sits against a 0xFF fill (negative numbers
  // slightly below -1): fill byte choice must flip to ones-fill.
  const int n = 4;
  Image raw = filled(1, n, std::byte{0xFF});
  // limb 2: 0xFF..FF_7F_03 — low bytes differ from the 0xFF fill.
  raw[2 * kLimbBytes + 0] = std::byte{0x03};
  raw[2 * kLimbBytes + 1] = std::byte{0x7F};
  expect_roundtrip(raw, 1, n, 0);
  const Image msg = encode(raw.data(), 1, n, 0);
  // status + map(1) + desc(1) + 2 explicit bytes.
  EXPECT_EQ(msg.size(), std::size_t{1} + 1 + 1 + 2);
}

TEST(MpisimWire, EveryDefinedStatusMaskRoundTrips) {
  const Image raw = filled(1, 2, std::byte{0x00});
  for (int mask = 0; mask <= 0xFF; ++mask) {
    const auto st = static_cast<std::uint8_t>(mask);
    if ((st & ~kHpStatusMask) != 0) continue;
    expect_roundtrip(raw, 1, 2, st);
  }
}

/// The codec's own model: per limb, a random fill and a random explicit
/// span — plus fully random limbs for good measure.
Image random_sparse_image(util::Xoshiro256ss& rng, std::size_t count, int n) {
  Image raw = filled(count, n, std::byte{0x00});
  for (std::size_t e = 0; e < count; ++e) {
    for (int i = 0; i < n; ++i) {
      std::byte* limb =
          raw.data() +
          (e * static_cast<std::size_t>(n) + static_cast<std::size_t>(i)) *
              kLimbBytes;
      const std::uint64_t kind = rng.next() % 4;
      const std::byte fill =
          (rng.next() & 1) != 0 ? std::byte{0xFF} : std::byte{0x00};
      std::memset(limb, std::to_integer<int>(fill), kLimbBytes);
      if (kind == 0) continue;  // pure fill
      if (kind == 1) {          // random span
        const std::size_t first = rng.next() % kLimbBytes;
        const std::size_t len = 1 + rng.next() % (kLimbBytes - first);
        for (std::size_t j = first; j < first + len; ++j) {
          limb[j] = static_cast<std::byte>(rng.next() & 0xFF);
        }
      } else {  // fully random limb
        for (std::size_t j = 0; j < kLimbBytes; ++j) {
          limb[j] = static_cast<std::byte>(rng.next() & 0xFF);
        }
      }
    }
  }
  return raw;
}

TEST(MpisimWire, FuzzRandomSparsePatternsRoundTripExactly) {
  util::Xoshiro256ss rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    const int n = 1 + static_cast<int>(rng.next() % 16);
    const std::size_t count = rng.next() % 4;
    const Image raw = random_sparse_image(rng, count, n);
    const std::uint8_t status = iter % 2 == 0 ? kHpStatusMask : 0;
    expect_roundtrip(raw, count, n, status);
    EXPECT_EQ(encode(raw.data(), count, n, status),
              reference_encode(raw, count, n, status))
        << "iter " << iter;
  }
}

TEST(MpisimWire, EncodeIntoMatchesEncode) {
  // encode_into writes encode()'s bytes, and nothing past them, over the
  // corpus the tests above use: fills, dense limbs, the fuzz patterns and
  // real HP partials.
  std::vector<std::pair<Image, int>> corpus;  // (raw image, n); count = 1
  util::Xoshiro256ss rng(0xE1C0DE);
  for (const int n : {1, 2, 4, 6, 16, 34}) {
    corpus.emplace_back(filled(1, n, std::byte{0x00}), n);
    corpus.emplace_back(filled(1, n, std::byte{0xFF}), n);
    Image dense = filled(1, n, std::byte{0x00});
    for (auto& b : dense) b = static_cast<std::byte>(rng.next() & 0xFF);
    corpus.emplace_back(dense, n);
    for (int i = 0; i < 20; ++i) {
      corpus.emplace_back(random_sparse_image(rng, 1, n), n);
    }
  }
  const HpConfig cfg{6, 3};
  const auto xs = workload::lognormal_set(4096, 1234);
  HpDyn acc(cfg);
  for (std::size_t i = 0; i < xs.size(); i += 97) {
    acc += i % 2 == 0 ? xs[i] : -xs[i];
    Image raw(acc.byte_size());
    acc.to_bytes(raw.data());
    corpus.emplace_back(raw, cfg.n);
  }
  for (const auto& [image, n] : corpus) {
    const std::size_t limb_bytes = static_cast<std::size_t>(n) * kLimbBytes;
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}}) {
      // `count` back-to-back copies of the element.
      Image raw;
      for (std::size_t e = 0; e < count; ++e) {
        raw.insert(raw.end(), image.begin(), image.begin() + limb_bytes);
      }
      for (const std::uint8_t status : {std::uint8_t{0}, kHpStatusMask}) {
        const Image want = encode(raw.data(), count, n, status);
        Image out(encoded_bound(n, count) + 8, std::byte{0xA5});
        const std::size_t size =
            encode_into(raw.data(), count, n, status, out.data());
        ASSERT_EQ(size, want.size()) << "n=" << n << " count=" << count;
        EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()))
            << "n=" << n << " count=" << count;
        for (std::size_t j = size; j < out.size(); ++j) {
          ASSERT_EQ(out[j], std::byte{0xA5}) << "wrote past the message";
        }
      }
    }
  }
}

TEST(MpisimWire, TypicalHpPartialsCompressAtLeastThreeFold) {
  // The bench gate's claim in unit form: partial sums of heavy-tailed
  // summands in HP{6,3} encode to under a third of the raw image.
  const HpConfig cfg{6, 3};
  const auto xs = workload::lognormal_set(4096, 1234);
  HpDyn acc(cfg);
  std::size_t raw_total = 0;
  std::size_t enc_total = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += xs[i];
    if (i % 256 != 0) continue;
    Image raw(acc.byte_size());
    acc.to_bytes(raw.data());
    expect_roundtrip(raw, 1, cfg.n, 0);
    raw_total += raw.size();
    enc_total += encode(raw.data(), 1, cfg.n, 0).size();
  }
  EXPECT_GE(static_cast<double>(raw_total),
            3.0 * static_cast<double>(enc_total));
}

TEST(MpisimWire, DecodeRejectsMalformedMessages) {
  const int n = 2;
  Image raw = filled(1, n, std::byte{0x00});
  raw[3] = std::byte{0x5C};  // one explicit limb
  const Image msg = encode(raw.data(), 1, n, 0);
  Image out(raw.size());
  const auto decode_bytes = [&](const Image& m) {
    return decode(m.data(), m.size(), out.data(), 1, n);
  };

  // Baseline sanity: the unmodified message decodes.
  EXPECT_EQ(decode_bytes(msg), 0);

  {  // empty message: no status byte
    const Image m;
    EXPECT_THROW(decode(m.data(), 0, out.data(), 0, n),
                 std::invalid_argument);
  }
  {  // undefined status bits
    Image m = msg;
    m[0] = std::byte{0xFF};
    EXPECT_THROW(decode_bytes(m), std::invalid_argument);
  }
  {  // truncated: drop the last explicit byte
    Image m = msg;
    m.pop_back();
    EXPECT_THROW(decode_bytes(m), std::invalid_argument);
  }
  {  // trailing garbage
    Image m = msg;
    m.push_back(std::byte{0x00});
    EXPECT_THROW(decode_bytes(m), std::invalid_argument);
  }
  {  // invalid limb code 3
    Image m = msg;
    m[1] = std::byte{0x03};
    EXPECT_THROW(decode_bytes(m), std::invalid_argument);
  }
  {  // reserved descriptor bit
    Image m = msg;
    m[2] |= std::byte{0x80};
    EXPECT_THROW(decode_bytes(m), std::invalid_argument);
  }
  {  // span past the limb end: first=7, len=2
    Image m = msg;
    m[2] = std::byte{0x0F};
    EXPECT_THROW(decode_bytes(m), std::invalid_argument);
  }
  {  // truncated limb map (count says more elements than the message has)
    EXPECT_THROW(decode(msg.data(), msg.size(), out.data(), 2, n),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace hpsum::mpisim::wire
