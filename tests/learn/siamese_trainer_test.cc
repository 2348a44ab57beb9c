#include "learn/siamese_trainer.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "nn/linear.h"

namespace magneto::learn {
namespace {

/// Gaussian blobs: class c is centred at distinct corners of a hypercube.
sensors::FeatureDataset Blobs(size_t classes, size_t per_class, size_t dim,
                              double spread, uint64_t seed) {
  Rng rng(seed);
  sensors::FeatureDataset ds;
  for (size_t c = 0; c < classes; ++c) {
    std::vector<float> center(dim);
    for (size_t j = 0; j < dim; ++j) {
      center[j] = ((c >> (j % 8)) & 1) ? 2.0f : -2.0f;
    }
    for (size_t i = 0; i < per_class; ++i) {
      std::vector<float> x(dim);
      for (size_t j = 0; j < dim; ++j) {
        x[j] = center[j] + static_cast<float>(rng.Normal(0.0, spread));
      }
      ds.Append(x, static_cast<sensors::ActivityId>(c));
    }
  }
  return ds;
}

/// 1-nearest-class-mean accuracy in the embedding space.
double NcmAccuracy(nn::Sequential* net, const sensors::FeatureDataset& train,
                   const sensors::FeatureDataset& test) {
  nn::ForwardWorkspace ws;
  Matrix train_emb = net->Forward(train.ToMatrix(), &ws);
  std::map<sensors::ActivityId, std::pair<std::vector<double>, size_t>> sums;
  for (size_t i = 0; i < train.size(); ++i) {
    auto& [sum, count] = sums[train.Label(i)];
    sum.resize(train_emb.cols(), 0.0);
    for (size_t j = 0; j < train_emb.cols(); ++j) {
      sum[j] += train_emb.At(i, j);
    }
    ++count;
  }
  Matrix test_emb = net->Forward(test.ToMatrix(), &ws);
  size_t correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    double best = 1e300;
    sensors::ActivityId best_id = -1;
    for (const auto& [id, entry] : sums) {
      double d = 0.0;
      for (size_t j = 0; j < test_emb.cols(); ++j) {
        const double proto = entry.first[j] / entry.second;
        const double diff = test_emb.At(i, j) - proto;
        d += diff * diff;
      }
      if (d < best) {
        best = d;
        best_id = id;
      }
    }
    if (best_id == test.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / test.size();
}

TrainOptions FastOptions() {
  TrainOptions options;
  options.epochs = 10;
  options.batch_size = 32;
  options.learning_rate = 1e-3;
  options.seed = 5;
  return options;
}

TEST(SiameseTrainerTest, InputValidation) {
  SiameseTrainer trainer(FastOptions());
  sensors::FeatureDataset data = Blobs(2, 5, 4, 0.1, 1);
  EXPECT_FALSE(trainer.Train(nullptr, data).ok());
  EXPECT_FALSE(trainer.Train(nullptr, {}).ok());

  Rng rng(1);
  nn::Sequential net = nn::BuildMlp(4, {8, 4}, &rng);
  sensors::FeatureDataset empty;
  EXPECT_FALSE(trainer.Train(&net, empty).ok());

  // Teacher without distill data / weight is rejected.
  nn::Sequential teacher = net.Clone();
  EXPECT_FALSE(trainer.Train(&net, data, &teacher, &empty).ok());
  TrainOptions no_weight = FastOptions();
  no_weight.distill_weight = 0.0;
  SiameseTrainer t2(no_weight);
  EXPECT_FALSE(t2.Train(&net, data, &teacher, &data).ok());

  // A single-example dataset can form no pair of either kind.
  sensors::FeatureDataset single;
  single.Append(std::vector<float>(4, 0.0f), 0);
  EXPECT_EQ(trainer.Train(&net, single).status().code(),
            StatusCode::kInvalidArgument);

  TrainOptions zero_epochs = FastOptions();
  zero_epochs.epochs = 0;
  EXPECT_FALSE(SiameseTrainer(zero_epochs).Train(&net, data).ok());
  TrainOptions zero_batch = FastOptions();
  zero_batch.batch_size = 0;
  EXPECT_FALSE(SiameseTrainer(zero_batch).Train(&net, data).ok());
}

TEST(SiameseTrainerTest, LossDecreasesOnSeparableData) {
  sensors::FeatureDataset data = Blobs(3, 30, 8, 0.3, 2);
  Rng rng(3);
  nn::Sequential net = nn::BuildMlp(8, {16, 4}, &rng);
  TrainOptions options = FastOptions();
  options.epochs = 15;
  SiameseTrainer trainer(options);
  auto report = trainer.Train(&net, data);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().epochs.size(), 15u);
  EXPECT_LT(report.value().final_embedding_loss(),
            report.value().epochs.front().embedding_loss * 0.8);
}

TEST(SiameseTrainerTest, LearnsSeparableEmbedding) {
  Rng split_rng(4);
  auto [train, test] = Blobs(3, 40, 8, 0.4, 5).StratifiedSplit(0.75,
                                                               &split_rng);
  Rng rng(6);
  nn::Sequential net = nn::BuildMlp(8, {16, 4}, &rng);
  const double before = NcmAccuracy(&net, train, test);
  TrainOptions options = FastOptions();
  options.epochs = 25;
  SiameseTrainer trainer(options);
  ASSERT_TRUE(trainer.Train(&net, train).ok());
  const double after = NcmAccuracy(&net, train, test);
  EXPECT_GT(after, 0.9);
  EXPECT_GE(after, before - 0.05);
}

TEST(SiameseTrainerTest, DistillationAnchorsTeacherEmbeddings) {
  // Train a "pre-trained" net on 2 old classes, then retrain on a third with
  // and without distillation: with distillation, the old-class embeddings
  // stay closer to the teacher's.
  sensors::FeatureDataset old_data = Blobs(2, 30, 8, 0.3, 10);
  Rng rng(11);
  nn::Sequential net = nn::BuildMlp(8, {16, 4}, &rng);
  TrainOptions pretrain = FastOptions();
  pretrain.epochs = 15;
  ASSERT_TRUE(SiameseTrainer(pretrain).Train(&net, old_data).ok());

  nn::Sequential teacher = net.Clone();
  nn::ForwardWorkspace ws;
  Matrix old_emb_before = teacher.Forward(old_data.ToMatrix(), &ws);

  sensors::FeatureDataset new_data = Blobs(3, 30, 8, 0.3, 10);

  auto drift_after_training = [&](double distill_weight) {
    nn::Sequential student = teacher.Clone();
    TrainOptions update = FastOptions();
    update.epochs = 12;
    update.distill_weight = distill_weight;
    SiameseTrainer trainer(update);
    if (distill_weight > 0.0) {
      nn::Sequential frozen = teacher.Clone();
      EXPECT_TRUE(
          trainer.Train(&student, new_data, &frozen, &old_data).ok());
    } else {
      EXPECT_TRUE(trainer.Train(&student, new_data).ok());
    }
    Matrix after = student.Forward(old_data.ToMatrix(), &ws);
    after.SubInPlace(old_emb_before);
    return std::sqrt(after.SumOfSquares() / after.rows());
  };

  const double drift_with = drift_after_training(2.0);
  const double drift_without = drift_after_training(0.0);
  EXPECT_LT(drift_with, drift_without);
}

TEST(SiameseTrainerTest, DeterministicForSeed) {
  sensors::FeatureDataset data = Blobs(2, 20, 6, 0.3, 12);
  auto run = [&]() {
    Rng rng(13);
    nn::Sequential net = nn::BuildMlp(6, {8, 3}, &rng);
    SiameseTrainer trainer(FastOptions());
    auto report = trainer.Train(&net, data);
    EXPECT_TRUE(report.ok());
    nn::ForwardWorkspace ws;
    return Matrix(net.Forward(data.ToMatrix(), &ws));
  };
  Matrix a = run();
  Matrix b = run();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(SiameseTrainerTest, ReportShapesMatchOptions) {
  sensors::FeatureDataset data = Blobs(2, 10, 4, 0.3, 14);
  Rng rng(15);
  nn::Sequential net = nn::BuildMlp(4, {6, 2}, &rng);
  TrainOptions options = FastOptions();
  options.epochs = 3;
  options.distill_weight = 0.5;
  nn::Sequential teacher = net.Clone();
  SiameseTrainer trainer(options);
  auto report = trainer.Train(&net, data, &teacher, &data);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().epochs.size(), 3u);
  EXPECT_GT(report.value().final_distill_loss(), 0.0);
}

/// FNV-1a (64-bit) over the raw bytes of every parameter of `net`.
uint64_t WeightsDigest(nn::Sequential* net) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Matrix* p : net->Params()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->data());
    for (size_t i = 0; i < p->size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(SiameseTrainerTest, WeightsDigestUnchanged) {
  // Golden bits of a pretrain followed by a distilled update, captured once
  // and never edited: a kernel or optimizer rewrite that changes one bit of
  // one trained weight fails here. The run covers Linear and ReLU
  // backward, Adam with and without weight decay, the packed GEMM (48-row
  // pair batches) and the portable one (12-row distillation batches), and
  // gradient accumulation across two backward passes per step. The bits
  // depend only on IEEE float arithmetic and the libm the build links;
  // thread count and GEMM ISA cannot change them.
  sensors::FeatureDataset old_data = Blobs(2, 20, 12, 0.4, 70);
  Rng rng(71);
  nn::Sequential net = nn::BuildMlp(12, {40, 24, 6}, &rng);
  TrainOptions pretrain = FastOptions();
  pretrain.epochs = 4;
  pretrain.batch_size = 24;
  ASSERT_TRUE(SiameseTrainer(pretrain).Train(&net, old_data).ok());
  EXPECT_EQ(WeightsDigest(&net), 0x5b2b10f33369ebfdull);

  sensors::FeatureDataset new_data = Blobs(3, 20, 12, 0.4, 72);
  sensors::FeatureDataset exemplars = Blobs(2, 6, 12, 0.4, 73);
  nn::Sequential teacher = net.Clone();
  TrainOptions update = FastOptions();
  update.epochs = 4;
  update.batch_size = 24;
  update.distill_weight = 1.5;
  update.weight_decay = 1e-4;
  update.seed = 74;
  ASSERT_TRUE(
      SiameseTrainer(update).Train(&net, new_data, &teacher, &exemplars).ok());
  EXPECT_EQ(WeightsDigest(&net), 0xfefc4f73c2d7d8aeull);
}


/// FNV-1a (64-bit) over every Linear layer's weights in row-major order,
/// then its bias, so the value does not depend on how a Linear stores them.
uint64_t RowMajorWeightsDigest(const nn::Sequential& net) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const Matrix& m) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    for (size_t i = 0; i < m.size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  };
  for (size_t i = 0; i < net.num_layers(); ++i) {
    if (net.layer(i).type() != nn::LayerType::kLinear) continue;
    const auto& linear = static_cast<const nn::Linear&>(net.layer(i));
    mix(linear.WeightRowMajor());
    mix(linear.bias());
  }
  return h;
}

TEST(SiameseTrainerTest, WideWeightsDigestUnchanged) {
  // Golden bits, captured once and never edited, of a net whose first layer
  // is wider than one 128-column weight panel (12 -> 200 -> 40): a pretrain
  // (48-row pair batches through the packed GEMM) and a distilled update
  // (12-row batches through the column-block kernel and the portable
  // TransA/TransB). The digest reads the weights in row-major order.
  sensors::FeatureDataset old_data = Blobs(2, 20, 12, 0.4, 80);
  Rng rng(81);
  nn::Sequential net = nn::BuildMlp(12, {200, 40}, &rng);
  TrainOptions pretrain = FastOptions();
  pretrain.epochs = 3;
  pretrain.batch_size = 24;
  ASSERT_TRUE(SiameseTrainer(pretrain).Train(&net, old_data).ok());
  EXPECT_EQ(RowMajorWeightsDigest(net), 0x9a31dc26a3b5b06bull);

  sensors::FeatureDataset new_data = Blobs(3, 20, 12, 0.4, 82);
  sensors::FeatureDataset exemplars = Blobs(2, 6, 12, 0.4, 83);
  nn::Sequential teacher = net.Clone();
  TrainOptions update = FastOptions();
  update.epochs = 3;
  update.batch_size = 24;
  update.distill_weight = 1.5;
  update.weight_decay = 1e-4;
  update.seed = 84;
  ASSERT_TRUE(
      SiameseTrainer(update).Train(&net, new_data, &teacher, &exemplars).ok());
  EXPECT_EQ(RowMajorWeightsDigest(net), 0x606eb7c841f4f9e7ull);
}

}  // namespace
}  // namespace magneto::learn
