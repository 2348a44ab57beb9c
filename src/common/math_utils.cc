#include "common/math_utils.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace magneto {
namespace stats {

double Mean(const float* x, size_t n) {
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc / static_cast<double>(n);
}

double Variance(const float* x, size_t n) {
  if (n == 0) return 0.0;
  const double mu = Mean(x, n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(n);
}

double StdDev(const float* x, size_t n) { return std::sqrt(Variance(x, n)); }

double Min(const float* x, size_t n) {
  if (n == 0) return 0.0;
  return *std::min_element(x, x + n);
}

double Max(const float* x, size_t n) {
  if (n == 0) return 0.0;
  return *std::max_element(x, x + n);
}

double Quantile(std::vector<float> x, double p) {
  std::sort(x.begin(), x.end());
  return QuantileSorted(x.data(), x.size(), p);
}

double QuantileSorted(const float* sorted, size_t n, double p) {
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double idx = p * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = idx - static_cast<double>(lo);
  return (1.0 - frac) * sorted[lo] + frac * sorted[hi];
}

double Median(const std::vector<float>& x) { return Quantile(x, 0.5); }

double Skewness(const float* x, size_t n) {
  if (n < 2) return 0.0;
  const double mu = Mean(x, n);
  double m2 = 0.0, m3 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - mu;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 1e-20) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

double Kurtosis(const float* x, size_t n) {
  if (n < 2) return 0.0;
  const double mu = Mean(x, n);
  double m2 = 0.0, m4 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - mu;
    const double d2 = d * d;
    m2 += d2;
    m4 += d2 * d2;
  }
  m2 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  if (m2 <= 1e-20) return 0.0;
  return m4 / (m2 * m2) - 3.0;
}

double Energy(const float* x, size_t n) {
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]) * x[i];
  return acc / static_cast<double>(n);
}

double RootMeanSquare(const float* x, size_t n) {
  return std::sqrt(Energy(x, n));
}

double MeanAbsDeviation(const float* x, size_t n) {
  if (n == 0) return 0.0;
  const double mu = Mean(x, n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::fabs(x[i] - mu);
  return acc / static_cast<double>(n);
}

double ZeroCrossingRate(const float* x, size_t n) {
  if (n < 2) return 0.0;
  const double mu = Mean(x, n);
  size_t crossings = 0;
  for (size_t i = 1; i < n; ++i) {
    const bool prev = (x[i - 1] - mu) >= 0.0;
    const bool cur = (x[i] - mu) >= 0.0;
    if (prev != cur) ++crossings;
  }
  return static_cast<double>(crossings) / static_cast<double>(n - 1);
}

double Autocorrelation(const float* x, size_t n, size_t lag) {
  if (n <= lag || n < 2) return 0.0;
  const double mu = Mean(x, n);
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - mu;
    den += d * d;
  }
  if (den <= 1e-20) return 0.0;
  for (size_t i = lag; i < n; ++i) {
    num += (x[i] - mu) * (x[i - lag] - mu);
  }
  return num / den;
}

double PearsonCorrelation(const float* x, const float* y, size_t n) {
  if (n < 2) return 0.0;
  const double mx = Mean(x, n), my = Mean(y, n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 1e-20 || syy <= 1e-20) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double MeanAbsDiff(const float* x, size_t n) {
  if (n < 2) return 0.0;
  double acc = 0.0;
  for (size_t i = 1; i < n; ++i) acc += std::fabs(x[i] - x[i - 1]);
  return acc / static_cast<double>(n - 1);
}

double Iqr(const std::vector<float>& x) {
  std::vector<float> sorted = x;
  std::sort(sorted.begin(), sorted.end());
  return QuantileSorted(sorted.data(), sorted.size(), 0.75) -
         QuantileSorted(sorted.data(), sorted.size(), 0.25);
}

}  // namespace stats

double LogSumExp(const double* x, size_t n) {
  if (n == 0) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(x, x + n);
  if (!std::isfinite(m)) return m;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::exp(x[i] - m);
  return m + std::log(acc);
}

void SoftmaxInPlace(float* x, size_t n) {
  if (n == 0) return;
  const float m = *std::max_element(x, x + n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - m);
    acc += x[i];
  }
  const float inv = static_cast<float>(1.0 / acc);
  for (size_t i = 0; i < n; ++i) x[i] *= inv;
}

float Clamp(float v, float lo, float hi) { return std::clamp(v, lo, hi); }

}  // namespace magneto
