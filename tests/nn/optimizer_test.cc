#include "nn/optimizer.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"

namespace magneto::nn {
namespace {

/// Quadratic bowl f(p) = 0.5 * ||p - target||^2; gradient = p - target.
struct Bowl {
  explicit Bowl(const std::vector<float>& target_values)
      : param(1, target_values.size()),
        grad(1, target_values.size()),
        target(1, target_values.size(), target_values) {}

  void ComputeGrad() {
    grad = param;
    grad.SubInPlace(target);
  }

  double Loss() const {
    Matrix diff = param;
    diff.SubInPlace(target);
    return 0.5 * diff.SumOfSquares();
  }

  Matrix param;
  Matrix grad;
  Matrix target;
};

TEST(AdamTest, ConvergesOnQuadratic) {
  Bowl bowl({5.0f, -7.0f});
  Adam::Options options;
  options.learning_rate = 0.1;
  Adam adam({&bowl.param}, {&bowl.grad}, options);
  for (int i = 0; i < 500; ++i) {
    adam.ZeroGrad();
    bowl.ComputeGrad();
    adam.Step();
  }
  EXPECT_LT(bowl.Loss(), 1e-4);
}

TEST(AdamTest, FirstStepIsApproximatelyLearningRate) {
  // With bias correction, the first Adam step has magnitude ~lr regardless of
  // gradient scale.
  for (float scale : {0.001f, 1.0f, 1000.0f}) {
    Matrix p(1, 1, {0.0f});
    Matrix g(1, 1, {scale});
    Adam::Options options;
    options.learning_rate = 0.1;
    Adam adam({&p}, {&g}, options);
    adam.Step();
    EXPECT_NEAR(p.At(0, 0), -0.1f, 1e-3) << "gradient scale " << scale;
  }
}

TEST(AdamTest, HandlesSparseGradients) {
  // Adam keeps moving (from moment estimates) even when a step's gradient is
  // zero; this just checks no NaN/instability appears.
  Matrix p(1, 2, {1.0f, 1.0f});
  Matrix g(1, 2);
  Adam adam({&p}, {&g}, Adam::Options{});
  for (int i = 0; i < 10; ++i) {
    g.Fill(i % 2 == 0 ? 1.0f : 0.0f);
    adam.Step();
  }
  EXPECT_TRUE(std::isfinite(p.At(0, 0)));
  EXPECT_LT(p.At(0, 0), 1.0f);
}

/// Adam::Step's update as a plain scalar loop: double-precision moments and
/// step, rounded to float on store, then decoupled weight decay as a
/// separate scale (Matrix::Scale). The optimizer's vectorised loop must
/// reproduce it bit for bit.
struct ReferenceAdam {
  explicit ReferenceAdam(size_t n) : m(n, 0.0f), v(n, 0.0f) {}

  void Step(const Adam::Options& o, float* p, const float* g) {
    ++t;
    const double lr = o.learning_rate, b1 = o.beta1, b2 = o.beta2;
    const double eps = o.epsilon;
    const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t));
    const float wd = static_cast<float>(o.weight_decay);
    for (size_t j = 0; j < m.size(); ++j) {
      m[j] = static_cast<float>(b1 * m[j] + (1.0 - b1) * g[j]);
      v[j] = static_cast<float>(b2 * v[j] +
                                (1.0 - b2) * static_cast<double>(g[j]) * g[j]);
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      p[j] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps));
    }
    if (wd != 0.0f) {
      const float s = 1.0f - static_cast<float>(lr) * wd;
      for (size_t j = 0; j < m.size(); ++j) p[j] *= s;
    }
  }

  std::vector<float> m, v;
  int64_t t = 0;
};

/// Deterministic value in [-1, 1) for element `i` at step `step`.
float HashUnit(size_t i, uint64_t step) {
  uint64_t x = ((i + 1) * 0x9e3779b97f4a7c15ull) ^
               ((step + 1) * 0xbf58476d1ce4e5b9ull);
  x ^= x >> 31;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 29;
  return static_cast<float>(x >> 40) * 0x1p-23f - 1.0f;
}

/// Step `step`'s gradient: mostly small values, with signed zeros,
/// denormals and +-1e30 scattered through (1e30 squared overflows the float
/// second moment to +inf, which the step must then carry through).
void FillGradient(uint64_t step, std::vector<float>* g) {
  const float specials[] = {0.0f,   -0.0f, 1e-40f, -1e-40f,
                            std::numeric_limits<float>::denorm_min(),
                            1e30f, -1e30f};
  constexpr size_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  for (size_t i = 0; i < g->size(); ++i) {
    const size_t pick = (i * 7 + step * 3) % 13;
    (*g)[i] = pick < kSpecials ? specials[(i + step) % kSpecials]
                               : 0.01f * HashUnit(i, step);
  }
}

bool SameBits(const std::vector<float>& want, const Matrix& got) {
  return want.size() == got.size() &&
         std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) ==
             0;
}

TEST(AdamTest, BitIdenticalToScalarReference) {
  // Sizes cross the vector tail (1, 3) and the 65,536-element ParallelFor
  // grain (65,537, and 700,000 ~ the paper backbone's parameter count). A
  // 1-lane and a 4-lane optimizer step in lockstep with the reference.
  const size_t saved_threads = ParallelThreads();
  const size_t lane_counts[] = {1, 4};
  for (size_t n : {size_t{1}, size_t{3}, size_t{65537}, size_t{700000}}) {
    for (double weight_decay : {0.0, 1e-2}) {
      Adam::Options options;
      options.learning_rate = 3e-3;
      options.weight_decay = weight_decay;
      std::vector<float> want(n), grad(n);
      for (size_t i = 0; i < n; ++i) want[i] = HashUnit(i, 1000);
      ReferenceAdam reference(n);
      std::vector<Matrix> params, grads;
      for (size_t lanes = 0; lanes < 2; ++lanes) {
        params.emplace_back(1, n, want);
        grads.emplace_back(1, n);
      }
      std::vector<std::unique_ptr<Adam>> adams;
      for (size_t lanes = 0; lanes < 2; ++lanes) {
        adams.push_back(std::make_unique<Adam>(
            std::vector<Matrix*>{&params[lanes]},
            std::vector<Matrix*>{&grads[lanes]}, options));
      }
      for (int step = 0; step < 50; ++step) {
        FillGradient(step, &grad);
        reference.Step(options, want.data(), grad.data());
        for (size_t l = 0; l < 2; ++l) {
          SetParallelThreads(lane_counts[l]);
          std::memcpy(grads[l].data(), grad.data(), n * sizeof(float));
          adams[l]->Step();
        }
      }
      for (size_t l = 0; l < 2; ++l) {
        const std::string label = "n=" + std::to_string(n) +
                                  " wd=" + std::to_string(weight_decay) +
                                  " lanes=" + std::to_string(lane_counts[l]);
        EXPECT_TRUE(SameBits(want, params[l])) << "params " << label;
        EXPECT_TRUE(SameBits(reference.m, adams[l]->first_moment(0)))
            << "m " << label;
        EXPECT_TRUE(SameBits(reference.v, adams[l]->second_moment(0)))
            << "v " << label;
      }
    }
  }
  SetParallelThreads(saved_threads);
}

TEST(OptimizerTest, ZeroGradClearsBuffers) {
  Matrix p(2, 2);
  Matrix g(2, 2);
  g.Fill(3.0f);
  Adam adam({&p}, {&g}, Adam::Options{});
  adam.ZeroGrad();
  EXPECT_FLOAT_EQ(g.AbsMax(), 0.0f);
}

TEST(OptimizerDeathTest, MismatchedShapesAbort) {
  Matrix p(2, 2);
  Matrix g(2, 3);
  EXPECT_DEATH(Adam({&p}, {&g}, Adam::Options{}), "Check failed");
}

}  // namespace
}  // namespace magneto::nn
