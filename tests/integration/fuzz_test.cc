#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "magneto.h"
#include "testing/test_helpers.h"

namespace magneto {
namespace {

/// Randomised corruption suite for the wire formats: whatever bytes arrive
/// over the link, the parsers must return an error or a valid object — never
/// crash, never read out of bounds, never half-construct.

class BundleFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    wire_ = new std::string(
        testing::SmallPretrainedBundle(901).SerializeToString());
  }
  static void TearDownTestSuite() {
    delete wire_;
    wire_ = nullptr;
  }
  static std::string* wire_;
};

std::string* BundleFuzzTest::wire_ = nullptr;

TEST_F(BundleFuzzTest, RandomSingleByteCorruptionNeverCrashes) {
  Rng rng(1);
  size_t parsed_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = *wire_;
    const size_t pos = rng.Index(bytes.size());
    bytes[pos] ^= static_cast<char>(1 + rng.Index(255));
    auto bundle = core::ModelBundle::FromString(bytes);
    if (bundle.ok()) {
      // Only corruption outside the CRC-protected region (header fields that
      // happen to still parse) could land here; the object must be usable.
      ++parsed_ok;
      EXPECT_GE(bundle.value().registry.size(), 0u);
    }
  }
  // The CRC catches essentially every body flip.
  EXPECT_LT(parsed_ok, 5u);
}

TEST_F(BundleFuzzTest, RandomTruncationNeverCrashes) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = wire_->substr(0, rng.Index(wire_->size()));
    auto bundle = core::ModelBundle::FromString(bytes);
    EXPECT_FALSE(bundle.ok());  // a strict prefix can never checksum
  }
}

TEST_F(BundleFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes(rng.Index(4096), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.UniformInt(-128, 127));
    auto bundle = core::ModelBundle::FromString(bytes);
    EXPECT_FALSE(bundle.ok());
  }
}

TEST_F(BundleFuzzTest, ShuffledChunksNeverCrash) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::string bytes = *wire_;
    // Swap two random chunks.
    const size_t chunk = 64;
    if (bytes.size() < 2 * chunk) break;
    const size_t a = rng.Index(bytes.size() - chunk);
    const size_t b = rng.Index(bytes.size() - chunk);
    for (size_t i = 0; i < chunk; ++i) std::swap(bytes[a + i], bytes[b + i]);
    (void)core::ModelBundle::FromString(bytes);  // must not crash
  }
  SUCCEED();
}

TEST(ReaderFuzzTest, RandomBytesThroughEveryReader) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes(rng.Index(256), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.UniformInt(-128, 127));
    BinaryReader reader(bytes);
    // Walk the buffer with a random sequence of reads until one fails.
    for (int step = 0; step < 32; ++step) {
      bool failed = false;
      switch (rng.Index(7)) {
        case 0: failed = !reader.ReadU8().ok(); break;
        case 1: failed = !reader.ReadU32().ok(); break;
        case 2: failed = !reader.ReadU64().ok(); break;
        case 3: failed = !reader.ReadF32().ok(); break;
        case 4: failed = !reader.ReadString().ok(); break;
        case 5: failed = !reader.ReadF32Vector().ok(); break;
        case 6: failed = !reader.ReadI64Vector().ok(); break;
      }
      if (failed) break;
    }
  }
  SUCCEED();
}

TEST(ReaderFuzzTest, SequentialDeserializeOnGarbage) {
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    BinaryWriter w;
    // Plausible-looking header followed by garbage.
    w.WriteU64(rng.Index(8) + 1);
    for (int i = 0; i < 64; ++i) {
      w.WriteU8(static_cast<uint8_t>(rng.Index(256)));
    }
    BinaryReader r(w.buffer());
    (void)nn::Sequential::Deserialize(&r);  // must not crash
  }
  SUCCEED();
}

// The quantized layer's wire payload through the same corruption grinder as
// the other serializers: every truncation point and a seeded storm of bit
// flips must come back as a Status — never a crash, never an allocation
// driven by a corrupt length field (the ASan leg of check.sh runs this).
TEST(ReaderFuzzTest, QuantizedLinearPayloadFuzz) {
  Rng rng(8);
  nn::Linear source(12, 9, &rng);
  auto quantized = nn::QuantizedLinear::FromLinear(source).value();
  BinaryWriter w;
  quantized->Serialize(&w);
  const std::string& full = w.buffer();
  ASSERT_GT(full.size(), 1u);
  ASSERT_EQ(static_cast<uint8_t>(full[0]), nn::kQuantizedLinearTag);

  // Every strict prefix of the post-tag payload must fail cleanly.
  for (size_t len = 0; len + 1 < full.size(); ++len) {
    BinaryReader r(full.data() + 1, len);
    auto layer = nn::QuantizedLinear::Deserialize(&r);
    EXPECT_FALSE(layer.ok()) << "truncation at " << len << " parsed";
  }

  // Seeded bit flips over the whole record, dispatched through the
  // Sequential tag switch like a real bundle parse would.
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes = full;
    const size_t pos = rng.Index(bytes.size());
    bytes[pos] ^= static_cast<char>(1 << rng.Index(8));
    BinaryWriter net;
    net.WriteU64(1);  // one-layer Sequential framing
    net.WriteBytes(bytes.data(), bytes.size());
    BinaryReader r(net.buffer());
    auto seq = nn::Sequential::Deserialize(&r);
    if (seq.ok()) {
      // A flip that survives validation must still yield a usable layer.
      Matrix x(1, 12);
      x.Fill(0.25f);
      if (seq.value().InputDim() == 12) {
        nn::ForwardWorkspace ws;
        (void)seq.value().Forward(x, &ws);
      }
    }
  }
  SUCCEED();
}

TEST(ReaderFuzzTest, PipelineDeserializeOnGarbage) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes(rng.Index(128) + 1, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.UniformInt(-128, 127));
    BinaryReader r(bytes);
    (void)preprocess::Pipeline::Deserialize(&r);
    BinaryReader r2(bytes);
    (void)core::SupportSet::Deserialize(&r2);
    BinaryReader r3(bytes);
    (void)core::NcmClassifier::Deserialize(&r3);
    BinaryReader r4(bytes);
    (void)sensors::ActivityRegistry::Deserialize(&r4);
  }
  SUCCEED();
}

// Truncation and bit-flip fuzzing that starts from a *valid* payload.
// Garbage rarely gets past a parser's header; breaking real bytes one bit at
// a time reaches every field. Each strict prefix is parsed from its own
// exact-size copy, so under ASan a read past the prefix traps. Every prefix
// must fail; each of `kFlipTrials` seeded single-bit flips must fail or give
// `use` an object that works (with the bytes it came from). Returns how many
// flips still parsed.
constexpr int kFlipTrials = 2000;

template <typename Parse, typename Use>
size_t FuzzValidPayload(const std::string& wire, uint64_t seed,
                        const Parse& parse, const Use& use) {
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(parse(wire.substr(0, len)).ok())
        << "prefix of " << len << "/" << wire.size() << " bytes parsed";
  }
  Rng rng(seed);
  size_t parsed = 0;
  for (int trial = 0; trial < kFlipTrials; ++trial) {
    std::string bytes = wire;
    const size_t bit = rng.Index(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    auto result = parse(bytes);
    if (!result.ok()) continue;
    ++parsed;
    use(result.value(), bytes);
  }
  return parsed;
}

TEST(ValidPayloadFuzzTest, ChunkFrameRejectsEveryTruncationAndBitFlip) {
  Rng rng(11);
  std::string chunk(517, '\0');
  for (char& c : chunk) c = static_cast<char>(rng.UniformInt(-128, 127));
  const uint32_t index = 2, total = 5;
  const uint64_t payload_bytes = 4 * 4096 + chunk.size();
  const std::string frame =
      platform::EncodeChunkFrame(index, total, payload_bytes, chunk);
  ASSERT_EQ(
      platform::DecodeChunkFrame(frame, index, total, payload_bytes).value(),
      chunk);
  const auto parse = [&](const std::string& bytes) {
    return platform::DecodeChunkFrame(bytes, index, total, payload_bytes);
  };
  // The magic, the header checks and the CRC-32 leave no field where a
  // single flipped bit goes unnoticed.
  EXPECT_EQ(FuzzValidPayload(frame, 12, parse,
                             [](const std::string&, const std::string&) {}),
            0u);
}

// A support set of 3 classes x up to 4 rows of dim 6, small enough that
// every prefix can be parsed.
core::SupportSet SmallSupportSet() {
  core::SupportSet set(4, core::SelectionStrategy::kRandom);
  Rng rng(13);
  for (sensors::ActivityId id : {0, 3, 7}) {
    sensors::FeatureDataset data;
    for (size_t i = 0; i < 3 + static_cast<size_t>(id % 2); ++i) {
      std::vector<float> row(6);
      for (float& v : row) v = static_cast<float>(rng.Normal(id, 1.0));
      data.Append(row, id);
    }
    EXPECT_TRUE(set.SetClass(id, data, nullptr, &rng).ok());
  }
  return set;
}

// What a caller does with a loaded support set: read each class back as a
// matrix, flatten it into the retraining set, and save it again. Every
// exemplar a survivor holds must be finite.
void ExpectUsable(const core::SupportSet& set, const std::string&) {
  size_t rows = 0;
  for (sensors::ActivityId id : set.Classes()) {
    auto exemplars = set.ClassExemplars(id);
    ASSERT_TRUE(exemplars.ok());
    EXPECT_EQ(exemplars.value().rows(), set.ClassSize(id));
    for (size_t i = 0; i < exemplars.value().size(); ++i) {
      EXPECT_TRUE(std::isfinite(exemplars.value().data()[i]))
          << "class " << id << " value " << i;
    }
    EXPECT_LE(set.ClassSize(id), set.capacity_per_class());
    rows += set.ClassSize(id);
  }
  EXPECT_EQ(set.TotalSize(), rows);
  EXPECT_EQ(set.AsDataset().size(), rows);
  BinaryWriter again;
  set.Serialize(&again);
  BinaryReader reader(again.buffer());
  EXPECT_TRUE(core::SupportSet::Deserialize(&reader).ok());
}

TEST(ValidPayloadFuzzTest, SupportSetF32RowsSurviveTruncationAndBitFlips) {
  BinaryWriter writer;
  SmallSupportSet().Serialize(&writer);
  const auto parse = [](const std::string& bytes) {
    BinaryReader reader(bytes);
    return core::SupportSet::Deserialize(&reader);
  };
  ASSERT_TRUE(parse(writer.buffer()).ok());
  // Flips inside an fp32 row still parse, so some survivors are expected.
  EXPECT_GT(FuzzValidPayload(writer.buffer(), 14, parse, ExpectUsable), 0u);
}

TEST(ValidPayloadFuzzTest, SupportSetInt8RowsSurviveTruncationAndBitFlips) {
  BinaryWriter writer;
  SmallSupportSet().SerializeQuantized(&writer);
  const auto parse = [](const std::string& bytes) {
    BinaryReader reader(bytes);
    return core::SupportSet::DeserializeQuantized(&reader);
  };
  ASSERT_TRUE(parse(writer.buffer()).ok());
  EXPECT_GT(FuzzValidPayload(writer.buffer(), 15, parse, ExpectUsable), 0u);
}

TEST(ValidPayloadFuzzTest, RecordingSurvivesTruncationAndBitFlips) {
  sensors::Recording recording;
  recording.samples = Matrix(12, sensors::kNumChannels);
  Rng rng(16);
  for (size_t r = 0; r < recording.samples.rows(); ++r) {
    for (size_t c = 0; c < recording.samples.cols(); ++c) {
      recording.samples(r, c) = static_cast<float>(rng.Normal(0.0, 2.0));
    }
  }
  BinaryWriter writer;
  sensors::SerializeRecording(recording, &writer);
  const auto parse = [](const std::string& bytes) {
    BinaryReader reader(bytes);
    return sensors::DeserializeRecording(&reader);
  };
  ASSERT_TRUE(parse(writer.buffer()).ok());
  // Every field is stored verbatim, so a survivor re-encodes to the very
  // bytes it was read from.
  const auto use = [](const sensors::Recording& survivor,
                      const std::string& bytes) {
    EXPECT_EQ(survivor.samples.size(),
              survivor.num_samples() * survivor.num_channels());
    BinaryWriter again;
    sensors::SerializeRecording(survivor, &again);
    EXPECT_EQ(again.buffer(), bytes);
  };
  EXPECT_GT(FuzzValidPayload(writer.buffer(), 17, parse, use), 0u);
}

// A small backbone: Linear(5->4), ReLU, int8 Linear(4->3). The layer reader
// checks every tag and that each layer's input width is what the layers
// before it produce, so a survivor must run a forward and return the width
// its layers declare.
TEST(ValidPayloadFuzzTest, SequentialSurvivesTruncationAndBitFlips) {
  Rng rng(18);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Linear>(5, 4, &rng));
  net.Add(std::make_unique<nn::Relu>());
  net.Add(nn::QuantizedLinear::FromLinear(nn::Linear(4, 3, &rng)).value());
  BinaryWriter writer;
  net.Serialize(&writer);
  const auto parse = [](const std::string& bytes) {
    BinaryReader reader(bytes);
    return nn::Sequential::Deserialize(&reader);
  };
  ASSERT_TRUE(parse(writer.buffer()).ok());
  const auto use = [](const nn::Sequential& survivor, const std::string&) {
    size_t width = survivor.InputDim();
    for (size_t i = 0; i < survivor.num_layers(); ++i) {
      width = survivor.layer(i).output_dim(width);
    }
    Matrix x(1, survivor.InputDim());
    x.Fill(0.5f);
    nn::ForwardWorkspace ws;
    const Matrix& y = survivor.Forward(x, &ws);
    EXPECT_EQ(y.rows(), 1u);
    EXPECT_EQ(y.cols(), width);
  };
  EXPECT_GT(FuzzValidPayload(writer.buffer(), 19, parse, use), 0u);
}

// A checkpoint whose primary copy is damaged in any way — cut short at any
// header byte or further in, or one bit flipped anywhere — must boot from
// the last-known-good copy, and the runtime it boots must classify exactly
// as that copy's model does. The two copies hold different models, so a
// damaged primary that loaded could not pass for the .lkg.
TEST(ValidPayloadFuzzTest, CheckpointFallsBackToLastKnownGood) {
  const std::string path = testing::UniqueTempPath("fuzz_checkpoint.magneto");
  const std::string lkg = core::EdgeRuntime::LastKnownGoodPath(path);
  const auto runtime = [](uint64_t seed) {
    core::ModelBundle bundle = testing::SmallPretrainedBundle(seed);
    core::SupportSet support = std::move(bundle.support);
    return core::EdgeRuntime(std::move(bundle).ToEdgeModel(),
                             std::move(support), core::IncrementalOptions{});
  };
  ASSERT_TRUE(runtime(903).SaveCheckpoint(path).ok());
  ASSERT_TRUE(runtime(904).SaveCheckpoint(path).ok());  // 903 -> .lkg
  const std::string primary = ReadFile(path).value();

  sensors::SyntheticGenerator gen(905);
  const sensors::Recording rec =
      gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 1.0);
  const Matrix window = rec.samples.RowSlice(0, 120);
  auto lkg_bundle = core::ModelBundle::LoadFromFile(lkg);
  ASSERT_TRUE(lkg_bundle.ok()) << lkg_bundle.status();
  core::EdgeModel lkg_model = std::move(lkg_bundle).value().ToEdgeModel();
  const core::NamedPrediction want = lkg_model.InferWindow(window).value();

  // Every fallback logs a warning; thousands of them would bury the output.
  const LogLevel saved_level = LogConfig::min_level();
  LogConfig::SetMinLevel(LogLevel::kError);
  obs::Counter* fallbacks =
      obs::Registry::Global().GetCounter("edge.checkpoint.fallbacks");
  const uint64_t fallbacks_before = fallbacks->value();
  size_t cases = 0;
  const auto expect_lkg = [&](const std::string& damaged,
                              const std::string& label) {
    ++cases;
    ASSERT_TRUE(WriteFile(path, damaged).ok());
    auto restored =
        core::EdgeRuntime::FromCheckpoint(path, core::IncrementalOptions{});
    ASSERT_TRUE(restored.ok()) << label << ": " << restored.status();
    auto got = restored.value().model().InferWindow(window);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status();
    const core::Prediction& p = got.value().prediction;
    EXPECT_EQ(p.activity, want.prediction.activity) << label;
    EXPECT_EQ(std::memcmp(&p.distance, &want.prediction.distance,
                          sizeof(p.distance)),
              0)
        << label;
    EXPECT_EQ(std::memcmp(&p.confidence, &want.prediction.confidence,
                          sizeof(p.confidence)),
              0)
        << label;
  };
  // Truncations: every length through the 16-byte header (magic, version,
  // body length) and a few past it, then ~200 strided lengths.
  const size_t stride = std::max<size_t>(1, primary.size() / 200);
  for (size_t len = 0; len < primary.size();
       len += len < 24 ? 1 : stride) {
    expect_lkg(primary.substr(0, len), "truncated to " + std::to_string(len));
  }
  Rng rng(906);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = primary;
    const size_t bit = rng.Index(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    expect_lkg(bytes, "bit " + std::to_string(bit) + " flipped");
  }
  LogConfig::SetMinLevel(saved_level);
  EXPECT_EQ(fallbacks->value() - fallbacks_before, cases);
  std::remove(path.c_str());
  std::remove(lkg.c_str());
}

}  // namespace
}  // namespace magneto
