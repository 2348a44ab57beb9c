#include "common/serial.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "testing/test_helpers.h"

namespace magneto {
namespace {

TEST(Crc32Test, KnownVectors) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, SensitiveToSingleBit) {
  std::string a = "hello world";
  std::string b = a;
  b[3] ^= 1;
  EXPECT_NE(Crc32(a.data(), a.size()), Crc32(b.data(), b.size()));
}

TEST(BinarySerialTest, PrimitiveRoundTrip) {
  BinaryWriter w;
  w.WriteU8(200);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(1234567890123456789ull);
  w.WriteI64(-42);
  w.WriteF32(3.25f);
  w.WriteF64(-2.5);
  w.WriteBool(true);
  w.WriteBool(false);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 200);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 1234567890123456789ull);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_FLOAT_EQ(r.ReadF32().value(), 3.25f);
  EXPECT_DOUBLE_EQ(r.ReadF64().value(), -2.5);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_FALSE(r.ReadBool().value());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinarySerialTest, StringRoundTrip) {
  BinaryWriter w;
  w.WriteString("hello");
  w.WriteString("");
  w.WriteString(std::string("\x00\x01\x02", 3));  // embedded NULs
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_EQ(r.ReadString().value().size(), 3u);
}

TEST(BinarySerialTest, VectorRoundTrip) {
  BinaryWriter w;
  w.WriteF32Vector(std::vector<float>{1.5f, -2.5f, 0.0f});
  w.WriteF32Vector(std::vector<float>{});
  w.WriteI64Vector({-1, 0, 99});
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadF32Vector().value(), (std::vector<float>{1.5f, -2.5f, 0.0f}));
  EXPECT_TRUE(r.ReadF32Vector().value().empty());
  EXPECT_EQ(r.ReadI64Vector().value(), (std::vector<int64_t>{-1, 0, 99}));
}

TEST(BinarySerialTest, TruncatedPrimitiveFails) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.buffer().data(), 2);  // cut in half
  auto res = r.ReadU32();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(BinarySerialTest, TruncatedStringFails) {
  BinaryWriter w;
  w.WriteString("abcdef");
  BinaryReader r(w.buffer().data(), w.buffer().size() - 3);
  auto res = r.ReadString();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(BinarySerialTest, TruncatedVectorFails) {
  BinaryWriter w;
  w.WriteF32Vector(std::vector<float>{1, 2, 3, 4});
  BinaryReader r(w.buffer().data(), w.buffer().size() - 1);
  EXPECT_FALSE(r.ReadF32Vector().ok());
}

TEST(BinarySerialTest, LyingLengthPrefixFails) {
  // A length prefix larger than the remaining buffer must not read OOB.
  BinaryWriter w;
  w.WriteU64(1ull << 40);  // claims a petabyte of payload
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path =
      testing::UniqueTempPath("magneto_serial_test.bin");
  const std::string payload("binary\x00payload", 14);
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIoError) {
  auto res = ReadFile("/nonexistent/definitely/missing.bin");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kIoError);
}

TEST(AtomicFileIoTest, RoundTripAndOverwrite) {
  const std::string path =
      testing::UniqueTempPath("magneto_atomic_test.bin");
  const std::string first("first\x00payload", 13);
  ASSERT_TRUE(WriteFileAtomic(path, first).ok());
  EXPECT_EQ(ReadFile(path).value(), first);
  // No staging residue after a successful write.
  EXPECT_FALSE(std::filesystem::exists(AtomicTempPath(path)));

  const std::string second(100000, 'z');
  ASSERT_TRUE(WriteFileAtomic(path, second).ok());
  EXPECT_EQ(ReadFile(path).value(), second);
  std::remove(path.c_str());
}

TEST(AtomicFileIoTest, PartialWriteLeavesOriginalIntact) {
  // Simulated power loss mid-write: the original file must survive, fully
  // readable — the property that makes `ModelBundle::SaveToFile` safe.
  const std::string path =
      testing::UniqueTempPath("magneto_atomic_partial.bin");
  const std::string original = "the deployed bundle we cannot afford to lose";
  ASSERT_TRUE(WriteFileAtomic(path, original).ok());

  testing_internal::SetMaxWriteBytesForTest(7);
  const std::string replacement(4096, 'R');
  Status failed = WriteFileAtomic(path, replacement);
  testing_internal::SetMaxWriteBytesForTest(SIZE_MAX);

  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // The victim of the "crash" is only the staging file...
  EXPECT_TRUE(std::filesystem::exists(AtomicTempPath(path)));
  EXPECT_LT(std::filesystem::file_size(AtomicTempPath(path)),
            replacement.size());
  // ...while the original contents are untouched.
  EXPECT_EQ(ReadFile(path).value(), original);

  // The stale temp does not poison the next write.
  ASSERT_TRUE(WriteFileAtomic(path, replacement).ok());
  EXPECT_EQ(ReadFile(path).value(), replacement);
  EXPECT_FALSE(std::filesystem::exists(AtomicTempPath(path)));
  std::remove(path.c_str());
}

TEST(AtomicFileIoTest, FailureToUnwritableDirectoryIsIoError) {
  Status s = WriteFileAtomic("/nonexistent/dir/file.bin", "x");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace magneto
