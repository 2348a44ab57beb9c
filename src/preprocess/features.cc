#include "preprocess/features.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/math_utils.h"
#include "sensors/sensor_types.h"

namespace magneto::preprocess {

namespace {

using sensors::Channel;
using sensors::kNumChannels;

constexpr size_t Ch(Channel c) { return static_cast<size_t>(c); }

/// The nine motion axes, as tri-axial groups whose Euclidean magnitude is a
/// feature signal.
constexpr Channel kGroups[3][3] = {
    {Channel::kAccX, Channel::kAccY, Channel::kAccZ},
    {Channel::kGyroX, Channel::kGyroY, Channel::kGyroZ},
    {Channel::kLinAccX, Channel::kLinAccY, Channel::kLinAccZ}};

/// Writes the magnitude signal `x` in ascending order to `scratch->sorted`,
/// exactly as `std::sort` orders it. Magnitudes are square roots of sums of
/// squares: never negative and never -0. Without a NaN their bit patterns,
/// read as unsigned integers, therefore order exactly as the floats do, and
/// equal floats have equal bits, so a stable LSD radix sort over the four
/// key bytes gives the array `std::sort` would, in O(n) and without
/// branches on the data. With a NaN the order `std::sort` leaves is
/// unspecified but fixed, so such a signal is handed to `std::sort`
/// itself.
void SortMagnitudes(const float* x, size_t n,
                    FeatureExtractor::Scratch* scratch) {
  std::vector<float>& sorted = scratch->sorted;
  sorted.assign(x, x + n);
  if (std::any_of(x, x + n, [](float v) { return std::isnan(v); })) {
    std::sort(sorted.begin(), sorted.end());
    return;
  }
  scratch->keys.resize(2 * n);
  uint32_t* src = scratch->keys.data();
  uint32_t* dst = src + n;
  std::memcpy(src, x, n * sizeof(float));
  uint32_t count[4][256] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 4; ++b) ++count[b][(src[i] >> (8 * b)) & 0xff];
  }
  for (int b = 0; b < 4; ++b) {
    const int shift = 8 * b;
    if (count[b][(src[0] >> shift) & 0xff] == n) continue;  // one digit
    uint32_t start = 0;
    for (uint32_t& c : count[b]) start += std::exchange(c, start);
    for (size_t i = 0; i < n; ++i) {
      dst[count[b][(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  std::memcpy(sorted.data(), src, n * sizeof(float));
}

/// The eight statistics of one magnitude signal `x` of length n > lag with
/// precomputed sum, energy and mean-|diff| sums: one fused pass for the
/// centred moments and the autocorrelation, one sort for the IQR. The
/// squared-deviation sum serves std, skewness, kurtosis and the
/// autocorrelation denominator, exactly as each accumulated it on its own.
void MagnitudeStats(const float* x, size_t n, size_t lag, double sum,
                    double energy, double abs_diff,
                    FeatureExtractor::Scratch* scratch, float* out) {
  const double dn = static_cast<double>(n);
  const double mu = sum / dn;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - mu;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  double num = 0.0;
  for (size_t i = lag; i < n; ++i) num += (x[i] - mu) * (x[i - lag] - mu);

  const double var = m2 / dn;
  const double m3n = m3 / dn;
  const double m4n = m4 / dn;
  const bool flat = var <= 1e-20;
  out[0] = static_cast<float>(mu);
  out[1] = static_cast<float>(std::sqrt(var));
  out[2] = static_cast<float>(flat ? 0.0 : m3n / std::pow(var, 1.5));
  out[3] = static_cast<float>(flat ? 0.0 : m4n / (var * var) - 3.0);
  out[4] = static_cast<float>(energy / dn);
  out[5] = static_cast<float>(abs_diff / static_cast<double>(n - 1));
  out[6] = static_cast<float>(m2 <= 1e-20 ? 0.0 : num / m2);
  SortMagnitudes(x, n, scratch);
  const float* sorted = scratch->sorted.data();
  out[7] = static_cast<float>(stats::QuantileSorted(sorted, n, 0.75) -
                              stats::QuantileSorted(sorted, n, 0.25));
}

}  // namespace

Status FeatureExtractor::Extract(const Matrix& window, Scratch* scratch,
                                 float* out) const {
  if (window.cols() != kNumChannels) {
    return Status::InvalidArgument(
        "window must have " + std::to_string(kNumChannels) + " channels, got " +
        std::to_string(window.cols()));
  }
  if (window.rows() < 2) {
    return Status::InvalidArgument("window must have at least 2 samples");
  }
  const size_t n = window.rows();
  const double dn = static_cast<double>(n);

  // Sweep 1: per-channel sums and extrema; the magnitude signals with their
  // sums, energies and mean-|diff| sums.
  double sum[kNumChannels] = {};
  float lo[kNumChannels], hi[kNumChannels];
  double mag_sum[3] = {}, mag_energy[3] = {}, mag_abs_diff[3] = {};
  scratch->magnitude.resize(3 * n);
  float* mag = scratch->magnitude.data();
  for (size_t i = 0; i < n; ++i) {
    const float* x = window.RowPtr(i);
    for (size_t c = 0; c < kNumChannels; ++c) sum[c] += x[c];
    if (i == 0) {
      for (size_t c = 0; c < kNumChannels; ++c) lo[c] = hi[c] = x[c];
    } else {
      for (size_t c = 0; c < kNumChannels; ++c) {
        if (x[c] < lo[c]) lo[c] = x[c];
        if (hi[c] < x[c]) hi[c] = x[c];
      }
    }
    for (size_t g = 0; g < 3; ++g) {
      const double a = x[Ch(kGroups[g][0])];
      const double b = x[Ch(kGroups[g][1])];
      const double c = x[Ch(kGroups[g][2])];
      float* m = mag + g * n;
      m[i] = static_cast<float>(std::sqrt(a * a + b * b + c * c));
      mag_sum[g] += m[i];
      mag_energy[g] += static_cast<double>(m[i]) * m[i];
      if (i > 0) mag_abs_diff[g] += std::fabs(m[i] - m[i - 1]);
    }
  }
  double mean[kNumChannels];
  for (size_t c = 0; c < kNumChannels; ++c) mean[c] = sum[c] / dn;

  // Sweep 2: squared deviations from the means, sign changes around them and
  // the accelerometer cross products.
  double sq[kNumChannels] = {};
  size_t crossings[kNumChannels] = {};
  double sxy = 0.0, sxz = 0.0, syz = 0.0;
  const size_t ax = Ch(Channel::kAccX), ay = Ch(Channel::kAccY),
               az = Ch(Channel::kAccZ);
  for (size_t i = 0; i < n; ++i) {
    const float* x = window.RowPtr(i);
    for (size_t c = 0; c < kNumChannels; ++c) {
      const double d = x[c] - mean[c];
      sq[c] += d * d;
    }
    if (i > 0) {
      const float* prev = window.RowPtr(i - 1);
      for (size_t c = 0; c < kNumChannels; ++c) {
        crossings[c] +=
            ((prev[c] - mean[c]) >= 0.0) != ((x[c] - mean[c]) >= 0.0);
      }
    }
    const double dx = x[ax] - mean[ax];
    const double dy = x[ay] - mean[ay];
    const double dz = x[az] - mean[az];
    sxy += dx * dy;
    sxz += dx * dz;
    syz += dy * dz;
  }
  auto std_dev = [&](Channel c) { return std::sqrt(sq[Ch(c)] / dn); };
  auto pearson = [&](double sab, size_t a, size_t b) {
    if (sq[a] <= 1e-20 || sq[b] <= 1e-20) return 0.0;
    return sab / std::sqrt(sq[a] * sq[b]);
  };

  // [0..44] per-axis motion stats.
  float* o = out;
  for (const auto& group : kGroups) {
    for (Channel axis : group) {
      const size_t c = Ch(axis);
      *o++ = static_cast<float>(mean[c]);
      *o++ = static_cast<float>(std_dev(axis));
      *o++ = lo[c];
      *o++ = hi[c];
      *o++ = static_cast<float>(static_cast<double>(crossings[c]) /
                                static_cast<double>(n - 1));
    }
  }

  // [45..68] magnitude-signal stats.
  const size_t lag = std::max<size_t>(1, n / 10);
  for (size_t g = 0; g < 3; ++g) {
    MagnitudeStats(mag + g * n, n, lag, mag_sum[g], mag_energy[g],
                   mag_abs_diff[g], scratch, o);
    o += 8;
  }

  // [69..71] accelerometer cross-axis correlations.
  *o++ = static_cast<float>(pearson(sxy, ax, ay));
  *o++ = static_cast<float>(pearson(sxz, ax, az));
  *o++ = static_cast<float>(pearson(syz, ay, az));

  // [72..79] context stats.
  *o++ = static_cast<float>(mean[Ch(Channel::kGravityZ)]);
  *o++ = static_cast<float>((std_dev(Channel::kRotX) + std_dev(Channel::kRotY) +
                             std_dev(Channel::kRotZ)) /
                            3.0);
  *o++ = static_cast<float>((std_dev(Channel::kMagX) + std_dev(Channel::kMagY) +
                             std_dev(Channel::kMagZ)) /
                            3.0);
  *o++ = static_cast<float>(mean[Ch(Channel::kPressure)]);
  *o++ = static_cast<float>(mean[Ch(Channel::kLight)]);
  *o++ = static_cast<float>(mean[Ch(Channel::kProximity)]);
  *o++ = static_cast<float>(mean[Ch(Channel::kSpeed)]);
  *o++ = static_cast<float>(std_dev(Channel::kSpeed));
  MAGNETO_CHECK(static_cast<size_t>(o - out) == kNumFeatures);
  return Status::Ok();
}

Result<std::vector<float>> FeatureExtractor::Extract(
    const Matrix& window) const {
  Scratch scratch;
  std::vector<float> out(kNumFeatures);
  MAGNETO_RETURN_IF_ERROR(Extract(window, &scratch, out.data()));
  return out;
}

const std::vector<std::string>& FeatureExtractor::FeatureNames() {
  static const std::vector<std::string>& kNames = *[] {
    auto* names = new std::vector<std::string>();
    const char* axes[9] = {"acc_x",     "acc_y",     "acc_z",
                           "gyro_x",    "gyro_y",    "gyro_z",
                           "lin_acc_x", "lin_acc_y", "lin_acc_z"};
    const char* axis_stats[5] = {"mean", "std", "min", "max", "zcr"};
    for (const char* axis : axes) {
      for (const char* stat : axis_stats) {
        names->push_back(std::string(axis) + "_" + stat);
      }
    }
    const char* mags[3] = {"acc_mag", "gyro_mag", "lin_acc_mag"};
    const char* mag_stats[8] = {"mean",   "std",      "skew", "kurtosis",
                                "energy", "abs_diff", "acorr", "iqr"};
    for (const char* mag : mags) {
      for (const char* stat : mag_stats) {
        names->push_back(std::string(mag) + "_" + stat);
      }
    }
    names->push_back("acc_corr_xy");
    names->push_back("acc_corr_xz");
    names->push_back("acc_corr_yz");
    names->push_back("gravity_z_mean");
    names->push_back("rot_std_avg");
    names->push_back("mag_std_avg");
    names->push_back("pressure_mean");
    names->push_back("light_mean");
    names->push_back("proximity_mean");
    names->push_back("speed_mean");
    names->push_back("speed_std");
    MAGNETO_CHECK(names->size() == kNumFeatures);
    return names;
  }();
  return kNames;
}

}  // namespace magneto::preprocess
