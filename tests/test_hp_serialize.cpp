// Tests for canonical endian-safe serialization.
#include "core/hp_serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/reduce.hpp"
#include "workload/workload.hpp"

namespace hpsum {
namespace {

TEST(HpSerialize, RoundTripsValueFormatAndStatus) {
  const auto xs = workload::uniform_set(1000, 1);
  HpDyn v = reduce_hp(xs, HpConfig{6, 3});
  v += 1e-300;  // below the lsb: sets kInexact
  ASSERT_TRUE(has(v.status(), HpStatus::kInexact));

  const auto bytes = serialize(v);
  EXPECT_EQ(bytes.size(), serialized_size(v.config()));
  const HpDyn back = deserialize(bytes);
  EXPECT_EQ(back, v);
  EXPECT_EQ(back.config(), v.config());
  EXPECT_TRUE(has(back.status(), HpStatus::kInexact));
}

TEST(HpSerialize, EncodingIsByteExactLittleEndian) {
  HpDyn v(HpConfig{2, 1});
  v += 1.0;  // limbs: [1, 0]
  const auto bytes = serialize(v);
  ASSERT_EQ(bytes.size(), 24u);
  EXPECT_EQ(bytes[0], std::byte{0x48});  // 'H'
  EXPECT_EQ(bytes[1], std::byte{0x50});  // 'P'
  EXPECT_EQ(bytes[2], std::byte{1});     // version
  EXPECT_EQ(bytes[3], std::byte{2});     // n
  EXPECT_EQ(bytes[4], std::byte{1});     // k
  EXPECT_EQ(bytes[5], std::byte{0});     // status ok
  // limb 0 == 1 encoded little-endian at offset 8.
  EXPECT_EQ(bytes[8], std::byte{1});
  for (int i = 9; i < 24; ++i) {
    EXPECT_EQ(bytes[static_cast<std::size_t>(i)], std::byte{0}) << i;
  }
}

TEST(HpSerialize, RejectsCorruptImages) {
  HpDyn v(HpConfig{3, 2}, 1.5);
  auto bytes = serialize(v);

  auto bad = bytes;
  bad[0] = std::byte{0};
  EXPECT_THROW(deserialize(bad), std::invalid_argument);

  bad = bytes;
  bad[2] = std::byte{99};  // future version
  EXPECT_THROW(deserialize(bad), std::invalid_argument);

  bad = bytes;
  bad[3] = std::byte{200};  // absurd limb count
  EXPECT_THROW(deserialize(bad), std::invalid_argument);

  bad = bytes;
  bad[4] = std::byte{5};  // k > n
  EXPECT_THROW(deserialize(bad), std::invalid_argument);

  bad.assign(4, std::byte{0});
  EXPECT_THROW(deserialize(bad), std::invalid_argument);

  bad = bytes;
  bad.pop_back();  // truncated
  EXPECT_THROW(deserialize(bad), std::invalid_argument);
}

TEST(HpSerialize, FullRangeRoundTripsAndWiderIsRejected) {
  HpDyn v(kFullRange);
  v += std::numeric_limits<double>::max();
  v -= std::numeric_limits<double>::denorm_min();
  const auto bytes = serialize(v);
  ASSERT_EQ(bytes.size(), serialized_size(kFullRange));
  EXPECT_EQ(deserialize(bytes), v);

  // A well-sized image one limb past kMaxLimbs is still rejected.
  auto wide = bytes;
  wide[3] = std::byte{kMaxLimbs + 1};
  wide.resize(wide.size() + 8, std::byte{0});
  ASSERT_EQ(wide.size(), serialized_size(HpConfig{kMaxLimbs + 1, 17}));
  EXPECT_THROW(deserialize(wide), std::invalid_argument);
}

TEST(HpSerialize, RejectsUndefinedStatusBits) {
  // deserialize used to OR the raw status byte straight into the sticky
  // mask, so corrupt (or future-version) images could plant undefined bits
  // that stuck forever and survived re-serialization. Undefined bits must
  // reject, not silently clear.
  HpDyn v(HpConfig{3, 2}, 1.5);
  const auto bytes = serialize(v);
  for (const std::uint8_t bad_bit : {0x40, 0x80}) {
    auto bad = bytes;
    bad[5] = static_cast<std::byte>(bad_bit);
    EXPECT_THROW(deserialize(bad), std::invalid_argument) << int{bad_bit};
    bad[5] = static_cast<std::byte>(kHpStatusMask | bad_bit);
    EXPECT_THROW(deserialize(bad), std::invalid_argument) << int{bad_bit};
  }
  // Every defined flag combination still round-trips.
  for (unsigned s = 0; s <= kHpStatusMask; ++s) {
    if ((s & ~static_cast<unsigned>(kHpStatusMask)) != 0) continue;
    auto img = bytes;
    img[5] = static_cast<std::byte>(s);
    EXPECT_EQ(static_cast<unsigned>(deserialize(img).status()), s);
  }
}

TEST(HpSerialize, FlaggedPartialCheckpointRoundTrips) {
  // The checkpoint/restart contract (examples/checkpoint_restart.cpp): a
  // partial sum that has already flagged a condition must restore flagged,
  // and resuming from the restored state must be bit-identical to never
  // having stopped — status included.
  const auto xs = workload::uniform_set(2000, 77);
  const HpConfig cfg{6, 3};
  HpDyn uninterrupted(cfg);
  for (const double x : xs) uninterrupted += x;
  uninterrupted += 1e-300;  // flags kInexact mid-run
  for (const double x : xs) uninterrupted += x;

  HpDyn partial(cfg);
  for (const double x : xs) partial += x;
  partial += 1e-300;
  ASSERT_TRUE(has(partial.status(), HpStatus::kInexact));

  HpDyn resumed = deserialize(serialize(partial));
  EXPECT_TRUE(has(resumed.status(), HpStatus::kInexact));
  for (const double x : xs) resumed += x;
  EXPECT_EQ(resumed, uninterrupted);
  EXPECT_EQ(resumed.status(), uninterrupted.status());
}

TEST(HpSerialize, ToBytesIsLimbsOnlyLittleEndian) {
  // HpDyn::to_bytes writes the raw limb image ONLY (no header, no status)
  // in limb order, each limb little-endian — the wire contract mpisim
  // datatypes and test_parity depend on (docs/FORMAT.md). It used to
  // memcpy native-endian, which broke the image on big-endian hosts.
  HpDyn v(HpConfig{2, 1});
  v += 1.0;  // limbs: [1, 0] (big-endian limb order, integer limb first)
  std::vector<std::byte> img(v.byte_size());
  ASSERT_EQ(img.size(), 16u);
  v.to_bytes(img.data());
  EXPECT_EQ(img[0], std::byte{1});  // limbs[0] lsb first
  for (std::size_t i = 1; i < img.size(); ++i) {
    EXPECT_EQ(img[i], std::byte{0}) << i;
  }

  // And from_bytes must not touch the sticky status.
  HpDyn dst(v.config());
  dst += 1e-300;  // kInexact
  dst.from_bytes(img.data());
  EXPECT_EQ(dst.to_double(), 1.0);
  EXPECT_TRUE(has(dst.status(), HpStatus::kInexact));
}

TEST(HpSerialize, NegativeValuesSurvive) {
  HpDyn v(HpConfig{4, 2}, -123.456);
  const HpDyn back = deserialize(serialize(v));
  EXPECT_EQ(back.to_double(), v.to_double());
  EXPECT_TRUE(back.is_negative());
}

TEST(HpSerialize, ManyRandomValuesRoundTrip) {
  const auto xs = workload::wide_range_set(200, 2, -60, 60);
  for (const double x : xs) {
    HpDyn v(HpConfig{4, 2}, x);
    EXPECT_EQ(deserialize(serialize(v)), v);
  }
}

}  // namespace
}  // namespace hpsum
