#ifndef MAGNETO_COMMON_SERIAL_H_
#define MAGNETO_COMMON_SERIAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace magneto {

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
uint32_t Crc32(const void* data, size_t size);

/// Appends little-endian binary encodings to an in-memory buffer.
///
/// This is the wire/disk format used for the `.magneto` model bundle — the
/// single artifact the cloud ships to the edge device. Format rules:
/// fixed-width little-endian primitives, u64 length-prefixed strings/blobs,
/// no padding. The writer is append-only; call `buffer()` to take the bytes.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// u64 length + raw bytes.
  void WriteString(const std::string& s);

  /// u64 count + packed f32 payload.
  void WriteF32Vector(std::span<const float> v);

  /// u64 count + packed i64 payload.
  void WriteI64Vector(const std::vector<int64_t>& v);

  /// u64 count + packed i8 payload (quantized weights).
  void WriteI8Vector(const std::vector<int8_t>& v);

  /// Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t size);

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Consumes little-endian binary encodings from a byte buffer.
///
/// All readers return `Result<...>` and fail with `kCorruption` on truncated
/// input rather than reading out of bounds.
class BinaryReader {
 public:
  /// Does not own `data`; the buffer must outlive the reader.
  BinaryReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size), pos_(0) {}

  explicit BinaryReader(const std::string& buffer)
      : BinaryReader(buffer.data(), buffer.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<float> ReadF32();
  Result<double> ReadF64();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<std::vector<float>> ReadF32Vector();
  Result<std::vector<int64_t>> ReadI64Vector();
  Result<std::vector<int8_t>> ReadI8Vector();

  /// Validate-before-allocate vector reads for untrusted payloads whose
  /// element count the caller already knows (e.g. from validated layer
  /// dimensions). The length prefix is compared against `expected` *before*
  /// any allocation; a mismatch returns Corruption without touching the
  /// heap, so a corrupt length field can never drive an oversized
  /// allocation.
  Result<std::vector<float>> ReadF32VectorExpected(uint64_t expected);
  Result<std::vector<int8_t>> ReadI8VectorExpected(uint64_t expected);
  /// ReadF32VectorExpected without the copy: a view of the `expected`
  /// floats' bytes in the buffer (any alignment; memcpy them out), valid
  /// while the buffer is.
  Result<std::span<const uint8_t>> ReadF32VectorBytes(uint64_t expected);

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Require(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// Writes `contents` to `path` directly (open with trunc + write + flush).
/// NOT crash-safe: a crash or I/O fault mid-write destroys any previous
/// contents of `path`. Prefer `WriteFileAtomic` for anything irreplaceable.
Status WriteFile(const std::string& path, const std::string& contents);

/// Crash-safe file replacement: writes `contents` to `<path>.tmp`, flushes,
/// then renames over `path` (atomic on POSIX filesystems). A crash or fault
/// mid-write leaves the previous `path` intact — at worst a stale temp file
/// remains, which the next atomic write overwrites.
Status WriteFileAtomic(const std::string& path, const std::string& contents);

/// The temp path `WriteFileAtomic(path, ...)` stages into.
std::string AtomicTempPath(const std::string& path);

/// Reads the whole file at `path`.
Result<std::string> ReadFile(const std::string& path);

namespace testing_internal {
/// Fault hook for persistence tests: `WriteFileAtomic` stops after writing
/// `n` bytes of content and returns kIoError, leaving the partial temp file
/// behind exactly as a power loss would. `SIZE_MAX` (the default) disables.
void SetMaxWriteBytesForTest(size_t n);
}  // namespace testing_internal

}  // namespace magneto

#endif  // MAGNETO_COMMON_SERIAL_H_
