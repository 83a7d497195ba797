#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "mdengine/system.hpp"

namespace mummi::util {
namespace {

// ByteWriter::vec copies elements raw, so it accepts only arithmetic types
// and packed records that opt in; a type with padding does not compile.
template <typename T>
constexpr bool kVecWritable =
    requires(ByteWriter w, const std::vector<T>& v) { w.vec(v); };

struct Padded {
  std::int32_t a;  // 4 padding bytes follow
  double b;
};

static_assert(kVecWritable<double> && kVecWritable<std::uint32_t> &&
              kVecWritable<std::int32_t> && kVecWritable<float>);
static_assert(kVecWritable<md::Vec3> && kVecWritable<md::Bond>);
static_assert(!kVecWritable<Padded>);
static_assert(!kVecWritable<md::Angle>);  // padded: written field by field
static_assert(!kVecWritable<std::pair<double, double>>);

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(123456);
  w.u64(1ULL << 50);
  w.i64(-42);
  w.f32(1.5f);
  w.f64(-2.25);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 1ULL << 50);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string("a\0b", 3));  // embedded NUL survives
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
}

TEST(Bytes, VectorRoundTrip) {
  ByteWriter w;
  w.vec(std::vector<double>{1.0, 2.0, 3.0});
  w.vec(std::vector<int>{});
  ByteReader r(w.data());
  EXPECT_EQ(r.vec<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.vec<int>().empty());
}

TEST(Bytes, NestedBytes) {
  ByteWriter inner;
  inner.u32(99);
  ByteWriter outer;
  outer.bytes(inner.data());
  outer.u8(1);
  ByteReader r(outer.data());
  const Bytes inner_back = r.bytes();
  ByteReader ri(inner_back);
  EXPECT_EQ(ri.u32(), 99u);
  EXPECT_EQ(r.u8(), 1);
}

TEST(Bytes, TruncatedStreamThrows) {
  ByteWriter w;
  w.u64(5);
  ByteReader r(w.data());
  EXPECT_EQ(r.u64(), 5u);
  EXPECT_THROW(r.u8(), FormatError);
}

TEST(Bytes, TruncatedVectorLengthThrows) {
  // A vector claiming far more elements than bytes present must not allocate
  // or read out of bounds.
  ByteWriter w;
  w.u64(1ULL << 60);
  ByteReader r(w.data());
  EXPECT_THROW(r.vec<double>(), FormatError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.u64(100);  // claims a 100-byte string with no payload
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), FormatError);
}

TEST(Bytes, ToFromString) {
  const std::string s = "payload";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, Fnv1aStableAndSpread) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

}  // namespace
}  // namespace mummi::util
