#include "common/serial.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

namespace magneto {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

template <typename T>
void AppendRaw(std::string* buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  buf->append(bytes, sizeof(T));
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// NOTE: the implementation assumes a little-endian host (x86/ARM in practice),
// which keeps primitive writes to a single memcpy.

void BinaryWriter::WriteU8(uint8_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteU32(uint32_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteU64(uint64_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteI64(int64_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteF32(float v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteF64(double v) { AppendRaw(&buffer_, v); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  buffer_.append(s);
}

void BinaryWriter::WriteF32Vector(std::span<const float> v) {
  WriteU64(v.size());
  if (!v.empty()) {
    buffer_.append(reinterpret_cast<const char*>(v.data()),
                   v.size() * sizeof(float));
  }
}

void BinaryWriter::WriteI64Vector(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  if (!v.empty()) {
    buffer_.append(reinterpret_cast<const char*>(v.data()),
                   v.size() * sizeof(int64_t));
  }
}

void BinaryWriter::WriteI8Vector(const std::vector<int8_t>& v) {
  WriteU64(v.size());
  if (!v.empty()) {
    buffer_.append(reinterpret_cast<const char*>(v.data()), v.size());
  }
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

Status BinaryReader::Require(size_t n) const {
  // Compare against the remaining length, never `pos_ + n` — a hostile
  // length prefix near 2^64 would wrap the addition and pass the check.
  if (n > size_ - pos_) {
    return Status::Corruption("truncated buffer: need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(pos_) +
                              ", have " + std::to_string(size_ - pos_));
  }
  return Status::Ok();
}

namespace {
template <typename T>
Result<T> ReadRaw(const uint8_t* data, size_t* pos) {
  T v;
  std::memcpy(&v, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return v;
}
}  // namespace

Result<uint8_t> BinaryReader::ReadU8() {
  MAGNETO_RETURN_IF_ERROR(Require(sizeof(uint8_t)));
  return ReadRaw<uint8_t>(data_, &pos_);
}

Result<uint32_t> BinaryReader::ReadU32() {
  MAGNETO_RETURN_IF_ERROR(Require(sizeof(uint32_t)));
  return ReadRaw<uint32_t>(data_, &pos_);
}

Result<uint64_t> BinaryReader::ReadU64() {
  MAGNETO_RETURN_IF_ERROR(Require(sizeof(uint64_t)));
  return ReadRaw<uint64_t>(data_, &pos_);
}

Result<int64_t> BinaryReader::ReadI64() {
  MAGNETO_RETURN_IF_ERROR(Require(sizeof(int64_t)));
  return ReadRaw<int64_t>(data_, &pos_);
}

Result<float> BinaryReader::ReadF32() {
  MAGNETO_RETURN_IF_ERROR(Require(sizeof(float)));
  return ReadRaw<float>(data_, &pos_);
}

Result<double> BinaryReader::ReadF64() {
  MAGNETO_RETURN_IF_ERROR(Require(sizeof(double)));
  return ReadRaw<double>(data_, &pos_);
}

Result<bool> BinaryReader::ReadBool() {
  MAGNETO_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  return v != 0;
}

Result<std::string> BinaryReader::ReadString() {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  MAGNETO_RETURN_IF_ERROR(Require(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<std::vector<float>> BinaryReader::ReadF32Vector() {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > remaining() / sizeof(float)) {
    return Status::Corruption("f32 vector count exceeds buffer: " +
                              std::to_string(n));
  }
  std::vector<float> v(n);
  if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return v;
}

Result<std::vector<int64_t>> BinaryReader::ReadI64Vector() {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > remaining() / sizeof(int64_t)) {
    return Status::Corruption("i64 vector count exceeds buffer: " +
                              std::to_string(n));
  }
  std::vector<int64_t> v(n);
  if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(int64_t));
  pos_ += n * sizeof(int64_t);
  return v;
}

Result<std::vector<int8_t>> BinaryReader::ReadI8Vector() {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  MAGNETO_RETURN_IF_ERROR(Require(n));
  std::vector<int8_t> v(n);
  if (n > 0) std::memcpy(v.data(), data_ + pos_, n);
  pos_ += n;
  return v;
}

Result<std::vector<float>> BinaryReader::ReadF32VectorExpected(
    uint64_t expected) {
  MAGNETO_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                           ReadF32VectorBytes(expected));
  std::vector<float> v(expected);
  if (expected > 0) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

Result<std::span<const uint8_t>> BinaryReader::ReadF32VectorBytes(
    uint64_t expected) {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n != expected) {
    return Status::Corruption("f32 vector count " + std::to_string(n) +
                              " != expected " + std::to_string(expected));
  }
  MAGNETO_RETURN_IF_ERROR(Require(n * sizeof(float)));
  const std::span<const uint8_t> bytes(data_ + pos_, n * sizeof(float));
  pos_ += bytes.size();
  return bytes;
}

Result<std::vector<int8_t>> BinaryReader::ReadI8VectorExpected(
    uint64_t expected) {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n != expected) {
    return Status::Corruption("i8 vector count " + std::to_string(n) +
                              " != expected " + std::to_string(expected));
  }
  MAGNETO_RETURN_IF_ERROR(Require(n));
  std::vector<int8_t> v(n);
  if (n > 0) std::memcpy(v.data(), data_ + pos_, n);
  pos_ += n;
  return v;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

namespace {
std::atomic<size_t> g_max_write_bytes{std::numeric_limits<size_t>::max()};
}  // namespace

namespace testing_internal {
void SetMaxWriteBytesForTest(size_t n) {
  g_max_write_bytes.store(n, std::memory_order_relaxed);
}
}  // namespace testing_internal

std::string AtomicTempPath(const std::string& path) { return path + ".tmp"; }

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = AtomicTempPath(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for write: " + tmp);
    const size_t limit = g_max_write_bytes.load(std::memory_order_relaxed);
    if (contents.size() > limit) {
      // Fault hook fired: emulate power loss mid-write — the partial temp
      // stays behind and `path` is untouched, exactly the state the
      // last-known-good recovery path must handle.
      out.write(contents.data(), static_cast<std::streamsize>(limit));
      out.flush();
      return Status::IoError("simulated partial write: " + tmp);
    }
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::Ok();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed: " + path);
  return contents;
}

}  // namespace magneto
