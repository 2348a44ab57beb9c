#include "compress/compress.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "nn/loss.h"

namespace magneto::compress {
namespace {

nn::Sequential SmallNet(uint64_t seed) {
  Rng rng(seed);
  return nn::BuildMlp(12, {24, 16, 8}, &rng);
}

Matrix RandomBatch(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return m;
}

double MaxOutputDiff(nn::Sequential* a, nn::Sequential* b, const Matrix& x) {
  nn::ForwardWorkspace ws;
  Matrix ya = a->Forward(x, &ws);
  Matrix yb = b->Forward(x, &ws);
  ya.SubInPlace(yb);
  return ya.AbsMax();
}

TEST(QuantizeBackboneTest, PreservesOutputsApproximately) {
  nn::Sequential net = SmallNet(1);
  auto quantized = QuantizeBackbone(net);
  ASSERT_TRUE(quantized.ok());
  Matrix x = RandomBatch(5, 12, 2);
  nn::ForwardWorkspace ws;
  Matrix y = net.Forward(x, &ws);
  EXPECT_LT(MaxOutputDiff(&net, &quantized.value(), x),
            0.05f * (y.AbsMax() + 1.0f));
}

TEST(QuantizeBackboneTest, ShrinksSerializedSize) {
  nn::Sequential net = SmallNet(3);
  auto quantized = QuantizeBackbone(net);
  ASSERT_TRUE(quantized.ok());
  const size_t fp32 = SerializedBytes(net);
  const size_t int8 = SerializedBytes(quantized.value());
  EXPECT_LT(int8, fp32 / 2);  // ~4x on weights, biases/headers dilute
}

TEST(QuantizeBackboneTest, RoundTripsThroughSequentialSerialization) {
  nn::Sequential net = SmallNet(5);
  auto quantized = QuantizeBackbone(net);
  ASSERT_TRUE(quantized.ok());
  BinaryWriter w;
  quantized.value().Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = nn::Sequential::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  Matrix x = RandomBatch(3, 12, 6);
  EXPECT_FLOAT_EQ(MaxOutputDiff(&quantized.value(), &back.value(), x), 0.0f);
}

TEST(PruneTest, AchievesRequestedSparsity) {
  nn::Sequential net = SmallNet(7);
  EXPECT_DOUBLE_EQ(Sparsity(net), 0.0);
  auto sparsity = PruneByMagnitude(&net, 0.5);
  ASSERT_TRUE(sparsity.ok());
  EXPECT_NEAR(sparsity.value(), 0.5, 0.02);
  EXPECT_NEAR(Sparsity(net), sparsity.value(), 1e-12);
}

TEST(PruneTest, ZeroFractionIsNoOp) {
  nn::Sequential net = SmallNet(8);
  Matrix x = RandomBatch(2, 12, 9);
  nn::ForwardWorkspace ws;
  Matrix before = net.Forward(x, &ws);
  auto sparsity = PruneByMagnitude(&net, 0.0);
  ASSERT_TRUE(sparsity.ok());
  EXPECT_DOUBLE_EQ(sparsity.value(), 0.0);
  Matrix after = net.Forward(x, &ws);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before.data()[i], after.data()[i]);
  }
}

TEST(PruneTest, MildPruningBarelyMovesOutputs) {
  nn::Sequential net = SmallNet(10);
  nn::Sequential original = net.Clone();
  ASSERT_TRUE(PruneByMagnitude(&net, 0.2).ok());
  Matrix x = RandomBatch(4, 12, 11);
  nn::ForwardWorkspace ws;
  Matrix y = original.Forward(x, &ws);
  // Removing the smallest 20% of weights changes outputs far less than the
  // output scale.
  EXPECT_LT(MaxOutputDiff(&original, &net, x), 0.35f * (y.AbsMax() + 1.0f));
}

TEST(PruneTest, InvalidFractionRejected) {
  nn::Sequential net = SmallNet(12);
  EXPECT_FALSE(PruneByMagnitude(&net, -0.1).ok());
  EXPECT_FALSE(PruneByMagnitude(&net, 1.0).ok());
  EXPECT_FALSE(PruneByMagnitude(nullptr, 0.5).ok());
}

TEST(PruneTest, SparseEncodingShrinksWithSparsity) {
  nn::Sequential dense = SmallNet(13);
  nn::Sequential sparse = dense.Clone();
  ASSERT_TRUE(PruneByMagnitude(&sparse, 0.8).ok());
  EXPECT_LT(SparseEncodedBytes(sparse), SparseEncodedBytes(dense) / 2);
}

TEST(FactorizeTest, FullEnergyKeepsLayersWhenNotSmaller) {
  // A square-ish small layer cannot be compressed at full energy: the net
  // must come back structurally unchanged.
  Rng rng(14);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Linear>(8, 8, &rng));
  auto factored = FactorizeBackbone(net, 1.0);
  ASSERT_TRUE(factored.ok());
  EXPECT_EQ(factored.value().num_layers(), 1u);
}

TEST(FactorizeTest, LowRankLayerIsCompressedLosslessly) {
  // Construct a Linear whose weight is exactly rank 2.
  Rng rng(15);
  Matrix u = RandomBatch(40, 2, 16);
  Matrix v = RandomBatch(2, 30, 17);
  auto layer = std::make_unique<nn::Linear>(40, 30);
  layer->SetWeightRowMajor(MatMul(u, v));
  layer->bias().Fill(0.25f);
  nn::Sequential net;
  net.Add(std::move(layer));

  auto factored = FactorizeBackbone(net, 0.999);
  ASSERT_TRUE(factored.ok());
  ASSERT_EQ(factored.value().num_layers(), 2u);  // two thin layers
  EXPECT_LT(SerializedBytes(factored.value()), SerializedBytes(net) / 2);

  Matrix x = RandomBatch(5, 40, 18);
  EXPECT_LT(MaxOutputDiff(&net, &factored.value(), x), 1e-2f);
}

TEST(FactorizeTest, EnergyFractionControlsAccuracySizeTradeoff) {
  nn::Sequential net = SmallNet(19);
  auto lossy = FactorizeBackbone(net, 0.7);
  auto faithful = FactorizeBackbone(net, 0.99);
  ASSERT_TRUE(lossy.ok());
  ASSERT_TRUE(faithful.ok());
  Matrix x = RandomBatch(6, 12, 20);
  EXPECT_LE(MaxOutputDiff(&net, &faithful.value(), x),
            MaxOutputDiff(&net, &lossy.value(), x) + 1e-4);
}

TEST(FactorizeTest, InvalidEnergyRejected) {
  nn::Sequential net = SmallNet(21);
  EXPECT_FALSE(FactorizeBackbone(net, 0.0).ok());
  EXPECT_FALSE(FactorizeBackbone(net, 1.5).ok());
}

TEST(DistillStudentTest, StudentApproximatesTeacher) {
  nn::Sequential teacher = SmallNet(22);
  sensors::FeatureDataset transfer;
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    std::vector<float> x(12);
    for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
    transfer.Append(x, 0);
  }
  StudentOptions options;
  options.dims = {16};
  options.epochs = 150;
  options.learning_rate = 3e-3;
  double final_loss = 1e9;
  auto student = DistillStudent(teacher, transfer, options, &final_loss);
  ASSERT_TRUE(student.ok());
  EXPECT_LT(student.value().NumParameters(), teacher.NumParameters());

  // Success criterion relative to the teacher's own output energy: the
  // student must explain most of the teacher's variance, not hit an
  // arbitrary absolute number.
  nn::ForwardWorkspace ws;
  Matrix targets = teacher.Forward(transfer.ToMatrix(), &ws);
  const double energy = static_cast<double>(targets.SumOfSquares()) /
                        static_cast<double>(targets.rows());
  EXPECT_LT(final_loss, 0.25 * energy)
      << "final " << final_loss << " vs energy " << energy;

  // On fresh inputs the student stays near the teacher.
  Matrix x = RandomBatch(8, 12, 24);
  Matrix t = teacher.Forward(x, &ws);
  Matrix s = student.value().Forward(x, &ws);
  auto mse = nn::DistillationMse(s, t);
  EXPECT_LT(mse.loss, 0.6 * energy);
}

TEST(DistillStudentTest, InputValidation) {
  nn::Sequential teacher = SmallNet(25);
  sensors::FeatureDataset empty;
  EXPECT_FALSE(DistillStudent(teacher, empty, StudentOptions{}).ok());
  sensors::FeatureDataset one;
  one.Append(std::vector<float>(12, 0.0f), 0);
  StudentOptions zero_epochs;
  zero_epochs.epochs = 0;
  EXPECT_FALSE(DistillStudent(teacher, one, zero_epochs).ok());
}

}  // namespace
}  // namespace magneto::compress
