#include "util/serialize.hpp"

#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>

namespace cgps {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundTripAllTypes) {
  const std::string path = temp_path("cgps_serialize_test.bin");
  {
    BinaryWriter w(path);
    w.write_u32(0xDEADBEEF);
    w.write_u64(1234567890123ULL);
    w.write_f32(3.5f);
    w.write_f64(-2.25);
    w.write_string("hello world");
    w.write_f32_vector({1.0f, 2.0f, 3.0f});
    w.write_i64_vector({-1, 0, 42});
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 1234567890123ULL);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.5f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_f32_vector(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(r.read_i64_vector(), (std::vector<std::int64_t>{-1, 0, 42}));
  std::filesystem::remove(path);
}

TEST(Serialize, EmptyVectorsAndStrings) {
  const std::string path = temp_path("cgps_serialize_empty.bin");
  {
    BinaryWriter w(path);
    w.write_string("");
    w.write_f32_vector({});
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.read_f32_vector().empty());
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedReadThrows) {
  const std::string path = temp_path("cgps_serialize_trunc.bin");
  {
    BinaryWriter w(path);
    w.write_u32(1);
  }
  BinaryReader r(path);
  r.read_u32();
  EXPECT_THROW(r.read_u64(), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, HugeLengthPrefixThrowsBeforeAllocating) {
  const std::string path = temp_path("cgps_serialize_huge.bin");
  {
    BinaryWriter w(path);
    w.write_u64(1ULL << 60);  // 1 EiB
    w.write_u64(0);
  }
  {
    BinaryReader r(path);
    EXPECT_THROW(r.read_string(), std::runtime_error);
  }
  {
    BinaryReader r(path);
    EXPECT_THROW(r.read_f32_vector(), std::runtime_error);
  }
  {
    BinaryReader r(path);
    EXPECT_THROW(r.read_i64_vector(), std::runtime_error);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, LengthPrefixBoundedByBytesLeft) {
  // A count is checked against the bytes left: exactly what remains passes,
  // one byte more is rejected.
  const std::string path = temp_path("cgps_serialize_bound.bin");
  {
    BinaryWriter w(path);
    w.write_f32_vector({1.0f, 2.0f});
  }
  {
    BinaryReader r(path);
    EXPECT_NO_THROW(r.check_count(1, 8 + 2 * sizeof(float)));
    EXPECT_THROW(r.check_count(1, 8 + 2 * sizeof(float) + 1), std::runtime_error);
    EXPECT_EQ(r.read_f32_vector(), (std::vector<float>{1.0f, 2.0f}));
    EXPECT_NO_THROW(r.check_count(0, 8));
    EXPECT_THROW(r.check_count(1, 1), std::runtime_error);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/path/file.bin"), std::runtime_error);
}

}  // namespace
}  // namespace cgps
