// Tests for the C API (exercised from C++, but only through the C surface).
#include "capi/hpsum_c.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/reduce.hpp"
#include "workload/workload.hpp"

namespace {

TEST(CApi, CreateAddResultDestroy) {
  hpsum_t* acc = hpsum_create(6, 3);
  ASSERT_NE(acc, nullptr);
  hpsum_add(acc, 1.5);
  hpsum_add(acc, -0.25);
  EXPECT_EQ(hpsum_result(acc), 1.25);
  EXPECT_EQ(hpsum_status(acc), HPSUM_OK);
  hpsum_destroy(acc);
}

TEST(CApi, InvalidParamsGiveNull) {
  EXPECT_EQ(hpsum_create(0, 0), nullptr);
  EXPECT_EQ(hpsum_create(3, 4), nullptr);
  EXPECT_EQ(hpsum_create(100, 1), nullptr);
  EXPECT_EQ(hpsum_create(35, 17), nullptr);  // one limb past the cap
  hpsum_t* full = hpsum_create(34, 17);     // the full-range format
  ASSERT_NE(full, nullptr);
  hpsum_destroy(full);
}

TEST(CApi, NullHandlesAreSafe) {
  hpsum_destroy(nullptr);
  hpsum_add(nullptr, 1.0);
  hpsum_add_array(nullptr, nullptr, 10);
  EXPECT_EQ(hpsum_result(nullptr), 0.0);
  EXPECT_NE(hpsum_status(nullptr), HPSUM_OK);
  EXPECT_NE(hpsum_merge(nullptr, nullptr), 0);
}

TEST(CApi, ArrayAddMatchesCppSum) {
  const auto xs = hpsum::workload::uniform_set(20000, 91);
  hpsum_t* acc = hpsum_create(6, 3);
  hpsum_add_array(acc, xs.data(), xs.size());
  EXPECT_EQ(hpsum_result(acc), (hpsum::reduce_hp<6, 3>(xs).to_double()));
  hpsum_destroy(acc);
}

TEST(CApi, MergePartials) {
  const auto xs = hpsum::workload::uniform_set(10000, 92);
  hpsum_t* a = hpsum_create(6, 3);
  hpsum_t* b = hpsum_create(6, 3);
  hpsum_add_array(a, xs.data(), xs.size() / 2);
  hpsum_add_array(b, xs.data() + xs.size() / 2, xs.size() - xs.size() / 2);
  EXPECT_EQ(hpsum_merge(a, b), 0);
  EXPECT_EQ(hpsum_result(a), (hpsum::reduce_hp<6, 3>(xs).to_double()));

  hpsum_t* other = hpsum_create(8, 4);
  EXPECT_NE(hpsum_merge(a, other), 0);  // format mismatch reported
  hpsum_destroy(a);
  hpsum_destroy(b);
  hpsum_destroy(other);
}

TEST(CApi, StatusFlagsSurface) {
  hpsum_t* acc = hpsum_create(2, 1);
  hpsum_add(acc, 1e40);  // beyond +/-2^63
  EXPECT_TRUE(hpsum_status(acc) & HPSUM_CONVERT_OVERFLOW);
  hpsum_clear(acc);
  EXPECT_EQ(hpsum_status(acc), HPSUM_OK);
  EXPECT_EQ(hpsum_result(acc), 0.0);
  hpsum_destroy(acc);
}

TEST(CApi, DecimalRendering) {
  hpsum_t* acc = hpsum_create(3, 2);
  hpsum_add(acc, -2.5);
  char buf[64];
  const size_t len = hpsum_decimal(acc, buf, sizeof buf);
  EXPECT_EQ(std::string(buf), "-2.5");
  EXPECT_EQ(len, 4u);
  // Truncation behaves like snprintf.
  char tiny[3];
  EXPECT_EQ(hpsum_decimal(acc, tiny, sizeof tiny), 4u);
  EXPECT_EQ(std::string(tiny), "-2");
  hpsum_destroy(acc);
}

TEST(CApi, SerializationRoundTrip) {
  const auto xs = hpsum::workload::uniform_set(5000, 93);
  hpsum_t* acc = hpsum_create(6, 3);
  hpsum_add_array(acc, xs.data(), xs.size());

  const size_t size = hpsum_serialized_size(6);
  ASSERT_GT(size, 0u);
  std::vector<unsigned char> buf(size);
  ASSERT_EQ(hpsum_serialize(acc, buf.data(), buf.size()), size);

  hpsum_t* back = hpsum_deserialize(buf.data(), buf.size());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(hpsum_result(back), hpsum_result(acc));
  hpsum_destroy(acc);
  hpsum_destroy(back);

  // Corrupt image -> NULL.
  buf[0] = 0;
  EXPECT_EQ(hpsum_deserialize(buf.data(), buf.size()), nullptr);
  EXPECT_EQ(hpsum_serialized_size(0), 0u);
}

}  // namespace
