#include "nn/sequential.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/quantized_linear.h"
#include "preprocess/features.h"

namespace magneto::nn {
namespace {

Sequential SmallNet(uint64_t seed) {
  Rng rng(seed);
  return BuildMlp(4, {8, 3}, &rng);
}

TEST(SequentialTest, BuildMlpLayerLayout) {
  Rng rng(1);
  Sequential net = BuildMlp(10, {20, 5}, &rng);
  // Linear, ReLU, Linear.
  ASSERT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.layer(0).type(), LayerType::kLinear);
  EXPECT_EQ(net.layer(1).type(), LayerType::kRelu);
  EXPECT_EQ(net.layer(2).type(), LayerType::kLinear);
}

TEST(SequentialTest, PaperBackboneShape) {
  Rng rng(1);
  Sequential net = BuildPaperBackbone(&rng);
  size_t dim = preprocess::kNumFeatures;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    dim = net.layer(i).output_dim(dim);
  }
  EXPECT_EQ(dim, 128u);  // paper embedding dim
  // 80*1024+1024 + 1024*512+512 + 512*128+128 + 128*64+64 + 64*128+128
  EXPECT_EQ(net.NumParameters(),
            80u * 1024 + 1024 + 1024 * 512 + 512 + 512 * 128 + 128 +
                128 * 64 + 64 + 64 * 128 + 128);
}

TEST(SequentialTest, ForwardProducesEmbedding) {
  Sequential net = SmallNet(2);
  Matrix x(5, 4);
  x.Fill(0.5f);
  ForwardWorkspace ws;
  const Matrix& y = net.Forward(x, &ws);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(SequentialTest, CloneIsIndependent) {
  Sequential net = SmallNet(3);
  Sequential clone = net.Clone();
  Matrix x(1, 4, {1, 2, 3, 4});
  ForwardWorkspace ws;
  Matrix y1 = net.Forward(x, &ws);
  Matrix y2 = clone.Forward(x, &ws);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
  // Mutating the original must not affect the clone.
  net.Params()[0]->Fill(0.0f);
  Matrix y3 = clone.Forward(x, &ws);
  for (size_t i = 0; i < y2.size(); ++i) {
    EXPECT_FLOAT_EQ(y3.data()[i], y2.data()[i]);
  }
}

TEST(SequentialTest, ParamsAndGradsAreParallel) {
  Sequential net = SmallNet(4);
  auto params = net.Params();
  auto grads = net.Grads();
  ASSERT_EQ(params.size(), grads.size());
  ASSERT_EQ(params.size(), 4u);  // 2 Linear layers x (W, b)
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i]->SameShape(*grads[i]));
  }
}

TEST(SequentialTest, BackwardFillsAllGradients) {
  Sequential net = SmallNet(5);
  Matrix x(2, 4);
  x.Fill(1.0f);
  ForwardWorkspace ws;
  const Matrix& y = net.Forward(x, &ws, /*record=*/true);
  Matrix g(y.rows(), y.cols());
  g.Fill(1.0f);
  net.Backward(g, &ws);
  bool any_nonzero = false;
  for (Matrix* grad : net.Grads()) {
    any_nonzero = any_nonzero || grad->AbsMax() > 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  net.ZeroGrad();
  for (Matrix* grad : net.Grads()) {
    EXPECT_FLOAT_EQ(grad->AbsMax(), 0.0f);
  }
}

TEST(SequentialTest, SerializationRoundTripPreservesOutputs) {
  Rng rng(6);
  Sequential net = BuildMlp(6, {10, 4}, &rng);
  BinaryWriter w;
  net.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Sequential::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().num_layers(), net.num_layers());

  Matrix x(3, 6);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(i) * 0.1f;
  }
  ForwardWorkspace ws;
  Matrix y1 = net.Forward(x, &ws);
  Matrix y2 = back.value().Forward(x, &ws);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(SequentialTest, DeserializeRejectsUnknownTag) {
  BinaryWriter w;
  w.WriteU64(1);
  w.WriteU8(200);  // bogus layer tag
  BinaryReader r(w.buffer());
  EXPECT_FALSE(Sequential::Deserialize(&r).ok());
}

TEST(SequentialTest, DeserializeRejectsNonChainingWidths) {
  // Linear(4->6), ReLU, Linear(5->3): each layer is well formed, but the
  // second Linear reads 5 columns where 6 arrive. Loading it would only
  // postpone the failure to an abort in the first forward.
  Rng rng(8);
  Sequential net;
  net.Add(std::make_unique<Linear>(4, 6, &rng));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Linear>(5, 3, &rng));
  BinaryWriter w;
  net.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = Sequential::Deserialize(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  EXPECT_NE(back.status().message().find("width"), std::string::npos)
      << back.status().message();

  // The same stack with matching widths loads.
  Sequential chained;
  chained.Add(std::make_unique<Linear>(4, 6, &rng));
  chained.Add(std::make_unique<Relu>());
  chained.Add(std::make_unique<Linear>(6, 3, &rng));
  BinaryWriter ok_writer;
  chained.Serialize(&ok_writer);
  BinaryReader ok_reader(ok_writer.buffer());
  EXPECT_TRUE(Sequential::Deserialize(&ok_reader).ok());
}

TEST(SequentialTest, DeserializeRejectsRetiredLayerTags) {
  // Tags 3, 4, 5 and 7 named tanh, sigmoid, dropout and layer norm. No
  // writer emits them, so a stream that holds one is corrupt even when the
  // payload those layers used to carry follows the tag.
  for (uint8_t tag : {3, 4, 5, 7}) {
    BinaryWriter w;
    w.WriteU64(1);
    w.WriteU8(tag);
    if (tag == 5) {  // dropout: p, seed
      w.WriteF64(0.5);
      w.WriteU64(9);
    } else if (tag == 7) {  // layer norm: dim, epsilon, gamma, beta
      w.WriteU64(2);
      w.WriteF64(1e-5);
      const std::vector<float> gamma{1.0f, 1.0f}, beta{0.0f, 0.0f};
      w.WriteF32Vector(gamma);
      w.WriteF32Vector(beta);
    }
    BinaryReader r(w.buffer());
    auto back = Sequential::Deserialize(&r);
    ASSERT_FALSE(back.ok()) << "tag " << int{tag};
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption)
        << "tag " << int{tag};
  }
}

/// Stacks the inference forward must run exactly as the recorded one does:
/// a Linear followed by a ReLU is one fused call there and two layers here.
std::vector<Sequential> FusionStacks() {
  Rng rng(11);
  std::vector<Sequential> stacks;
  // Ends in a Linear: the paper backbone's pattern on wide, ragged layers
  // (several column chunks, partial vectors, a panel edge at 128).
  stacks.push_back(BuildMlp(80, {300, 129, 17}, &rng));
  // Ends in a ReLU.
  Sequential ends_relu;
  ends_relu.Add(std::make_unique<Linear>(80, 256, &rng));
  ends_relu.Add(std::make_unique<Relu>());
  ends_relu.Add(std::make_unique<Linear>(256, 33, &rng));
  ends_relu.Add(std::make_unique<Relu>());
  stacks.push_back(std::move(ends_relu));
  // Starts with a ReLU, which has nothing to fuse into.
  Sequential starts_relu;
  starts_relu.Add(std::make_unique<Relu>());
  starts_relu.Add(std::make_unique<Linear>(80, 64, &rng));
  starts_relu.Add(std::make_unique<Relu>());
  starts_relu.Add(std::make_unique<Linear>(64, 40, &rng));
  stacks.push_back(std::move(starts_relu));
  // An int8 layer between fp32 ones: its ReLU runs as a layer of its own.
  Sequential mixed;
  mixed.Add(std::make_unique<Linear>(80, 160, &rng));
  mixed.Add(std::make_unique<Relu>());
  const Linear source(160, 96, &rng);
  mixed.Add(QuantizedLinear::FromLinear(source).value());
  mixed.Add(std::make_unique<Relu>());
  mixed.Add(std::make_unique<Linear>(96, 24, &rng));
  mixed.Add(std::make_unique<Relu>());
  stacks.push_back(std::move(mixed));
  // The biases are zero after construction; give them both signs.
  for (Sequential& net : stacks) {
    for (size_t i = 0; i < net.num_layers(); ++i) {
      if (net.layer(i).type() != LayerType::kLinear) continue;
      Matrix& bias = static_cast<Linear&>(net.layer(i)).bias();
      for (size_t c = 0; c < bias.size(); ++c) {
        bias.data()[c] = static_cast<float>(rng.Normal(0.0, 0.5));
      }
    }
  }
  return stacks;
}

TEST(SequentialTest, InferenceForwardMatchesRecordedBits) {
  // Across the packed cut-over (m 1-20) and at 1 and 4 lanes, the inference
  // forward must equal, bit for bit, the recorded forward that runs every
  // layer's own Forward.
  const size_t saved_threads = ParallelThreads();
  Rng rng(12);
  const std::vector<Sequential> stacks = FusionStacks();
  for (size_t s = 0; s < stacks.size(); ++s) {
    for (size_t m = 1; m <= 20; ++m) {
      Matrix x(m, 80);
      for (size_t i = 0; i < x.size(); ++i) {
        x.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
      }
      for (size_t lanes : {1, 4}) {
        SetParallelThreads(lanes);
        ForwardWorkspace recorded_ws, inference_ws;
        const Matrix& want = stacks[s].Forward(x, &recorded_ws,
                                               /*record=*/true);
        const Matrix& got = stacks[s].Forward(x, &inference_ws);
        ASSERT_TRUE(got.SameShape(want)) << "stack " << s << " m " << m;
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "stack " << s << " m " << m << " lanes " << lanes;
      }
    }
  }
  SetParallelThreads(saved_threads);
}

TEST(SequentialTest, SummaryListsLayers) {
  Sequential net = SmallNet(7);
  const std::string summary = net.Summary();
  EXPECT_NE(summary.find("Linear(4->8)"), std::string::npos);
  EXPECT_NE(summary.find("ReLU"), std::string::npos);
  EXPECT_NE(summary.find("Linear(8->3)"), std::string::npos);
}

}  // namespace
}  // namespace magneto::nn
