#include "util/serialize.hpp"

namespace cgps {

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("BinaryWriter: cannot open " + path);
}

void BinaryWriter::write_raw(const void* data, std::size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out_) throw std::runtime_error("BinaryWriter: write failed");
}

void BinaryWriter::write_u32(std::uint32_t v) { write_raw(&v, sizeof(v)); }
void BinaryWriter::write_u64(std::uint64_t v) { write_raw(&v, sizeof(v)); }
void BinaryWriter::write_f32(float v) { write_raw(&v, sizeof(v)); }
void BinaryWriter::write_f64(double v) { write_raw(&v, sizeof(v)); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_raw(s.data(), s.size());
}

void BinaryWriter::write_f32_vector(const std::vector<float>& v) {
  write_u64(v.size());
  if (!v.empty()) write_raw(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::write_i64_vector(const std::vector<std::int64_t>& v) {
  write_u64(v.size());
  if (!v.empty()) write_raw(v.data(), v.size() * sizeof(std::int64_t));
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary | std::ios::ate) {
  if (!in_) throw std::runtime_error("BinaryReader: cannot open " + path);
  const std::streamoff end = in_.tellg();
  if (end < 0) throw std::runtime_error("BinaryReader: cannot size " + path);
  size_ = static_cast<std::uint64_t>(end);
  in_.seekg(0);
}

void BinaryReader::read_raw(void* data, std::size_t n) {
  if (n > remaining()) throw std::runtime_error("BinaryReader: truncated read");
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (!in_) throw std::runtime_error("BinaryReader: truncated read");
  pos_ += n;
}

void BinaryReader::check_count(std::uint64_t count, std::uint64_t record_bytes) const {
  if (count > remaining() / record_bytes)
    throw std::runtime_error("BinaryReader: length prefix " + std::to_string(count) +
                             " exceeds the " + std::to_string(remaining()) + " bytes left");
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
float BinaryReader::read_f32() {
  float v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
double BinaryReader::read_f64() {
  double v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  check_count(n, 1);
  std::string s(n, '\0');
  if (n > 0) read_raw(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::read_f32_vector() {
  const std::uint64_t n = read_u64();
  check_count(n, sizeof(float));
  std::vector<float> v(n);
  if (n > 0) read_raw(v.data(), n * sizeof(float));
  return v;
}

std::vector<std::int64_t> BinaryReader::read_i64_vector() {
  const std::uint64_t n = read_u64();
  check_count(n, sizeof(std::int64_t));
  std::vector<std::int64_t> v(n);
  if (n > 0) read_raw(v.data(), n * sizeof(std::int64_t));
  return v;
}

}  // namespace cgps
