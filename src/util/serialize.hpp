// Minimal binary serialization used for model checkpoints (pre-train once,
// fine-tune later) and dataset caches. Little-endian POD framing with a magic
// header and explicit sizes; no versioned schema evolution needed here.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cgps {

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_vector(const std::vector<float>& v);
  void write_i64_vector(const std::vector<std::int64_t>& v);

 private:
  void write_raw(const void* data, std::size_t n);
  std::ofstream out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vector();
  std::vector<std::int64_t> read_i64_vector();

  // Throws std::runtime_error unless `count` records of at least
  // `record_bytes` (>= 1) each fit in the bytes left. Every length prefix is
  // checked this way before anything is allocated for it, so a corrupt or
  // hostile count fails as a truncated file, never as a huge allocation.
  void check_count(std::uint64_t count, std::uint64_t record_bytes) const;

 private:
  void read_raw(void* data, std::size_t n);
  std::uint64_t remaining() const { return size_ - pos_; }
  std::ifstream in_;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
};

}  // namespace cgps
