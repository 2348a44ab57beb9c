#include "preprocess/features.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
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

/// A float's bits as an unsigned integer, the radix sort's key.
uint32_t Bits(float v) { return std::bit_cast<uint32_t>(v); }

}  // namespace

void FeatureExtractor::Scratch::Begin(size_t n) {
  MAGNETO_CHECK(n >= 2);
  n_ = n;
  rows_ = 0;
  std::fill(std::begin(sum_), std::end(sum_), 0.0);
  for (size_t g = 0; g < 3; ++g) {
    mag_sum_[g] = mag_energy_[g] = mag_abs_diff_[g] = 0.0;
    mag_nan_[g] = false;
  }
  std::memset(count_, 0, sizeof(count_));
  magnitude_.resize(3 * n);
  sorted_.resize(3 * n);
  keys_.resize(6 * n);
}

void FeatureExtractor::Scratch::AddRow(const float* x) {
  MAGNETO_CHECK(rows_ < n_);
  const size_t i = rows_++;
  for (size_t c = 0; c < kNumChannels; ++c) sum_[c] += x[c];
  size_t axis = 0;
  for (const auto& group : kGroups) {
    for (Channel ch : group) {
      const float v = x[Ch(ch)];
      if (i == 0) {
        lo_[axis] = hi_[axis] = v;
      } else {
        if (v < lo_[axis]) lo_[axis] = v;
        if (hi_[axis] < v) hi_[axis] = v;
      }
      ++axis;
    }
  }
  for (size_t g = 0; g < 3; ++g) {
    const double a = x[Ch(kGroups[g][0])];
    const double b = x[Ch(kGroups[g][1])];
    const double c = x[Ch(kGroups[g][2])];
    float* m = magnitude_.data() + g * n_;
    m[i] = static_cast<float>(std::sqrt(a * a + b * b + c * c));
    mag_sum_[g] += m[i];
    mag_energy_[g] += static_cast<double>(m[i]) * m[i];
    if (i > 0) mag_abs_diff_[g] += std::fabs(m[i] - m[i - 1]);
    mag_nan_[g] |= std::isnan(m[i]);
    const uint32_t key = Bits(m[i]);
    for (int byte = 0; byte < 4; ++byte) {
      ++count_[g][byte][(key >> (8 * byte)) & 0xff];
    }
  }
}

// Magnitudes are square roots of sums of squares: never negative and never
// -0. Without a NaN their bit patterns, read as unsigned integers, therefore
// order exactly as the floats do, and equal floats have equal bits, so a
// stable LSD radix sort over the four key bytes gives the array `std::sort`
// would, in O(n) and without branches on the data. The byte histograms were
// counted row by row in `AddRow`. The three signals are sorted side by side,
// so their three count chains overlap; a byte in which every signal's keys
// share one digit needs no pass, and in a pass that some signal needs, the
// others' one-digit scatter is a stable copy. With a NaN the order
// `std::sort` leaves is unspecified but fixed, so such a signal is handed to
// `std::sort` itself.
void FeatureExtractor::Scratch::SortMagnitudes() {
  const size_t n = n_;
  uint32_t* src = keys_.data();
  uint32_t* dst = src + 3 * n;
  std::memcpy(src, magnitude_.data(), 3 * n * sizeof(float));
  for (int byte = 0; byte < 4; ++byte) {
    const int shift = 8 * byte;
    bool needed = false;
    for (size_t g = 0; g < 3; ++g) {
      needed |= !mag_nan_[g] &&
                count_[g][byte][(src[g * n] >> shift) & 0xff] != n;
    }
    if (!needed) continue;
    for (size_t g = 0; g < 3; ++g) {
      uint32_t start = 0;
      for (uint32_t& c : count_[g][byte]) start += std::exchange(c, start);
    }
    uint32_t* count0 = count_[0][byte];
    uint32_t* count1 = count_[1][byte];
    uint32_t* count2 = count_[2][byte];
    for (size_t i = 0; i < n; ++i) {
      const uint32_t k0 = src[i], k1 = src[n + i], k2 = src[2 * n + i];
      dst[count0[(k0 >> shift) & 0xff]++] = k0;
      dst[n + count1[(k1 >> shift) & 0xff]++] = k1;
      dst[2 * n + count2[(k2 >> shift) & 0xff]++] = k2;
    }
    std::swap(src, dst);
  }
  std::memcpy(sorted_.data(), src, 3 * n * sizeof(float));
  for (size_t g = 0; g < 3; ++g) {
    if (!mag_nan_[g]) continue;
    float* sorted = sorted_.data() + g * n;
    const float* x = magnitude_.data() + g * n;
    std::copy(x, x + n, sorted);
    std::sort(sorted, sorted + n);
  }
}

// One fused pass for the centred moments and one for the autocorrelation at
// lag max(1, n/10); the IQR reads the sorted signal. The squared-deviation
// sum serves std, skewness, kurtosis and the autocorrelation denominator,
// exactly as each accumulated it on its own.
void FeatureExtractor::Scratch::MagnitudeStats(size_t g, float* out) {
  const size_t n = n_;
  const float* x = magnitude_.data() + g * n;
  const size_t lag = std::max<size_t>(1, n / 10);
  const double dn = static_cast<double>(n);
  const double mu = mag_sum_[g] / dn;
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
  out[4] = static_cast<float>(mag_energy_[g] / dn);
  out[5] = static_cast<float>(mag_abs_diff_[g] / static_cast<double>(n - 1));
  out[6] = static_cast<float>(m2 <= 1e-20 ? 0.0 : num / m2);
  const float* sorted = sorted_.data() + g * n;
  out[7] = static_cast<float>(stats::QuantileSorted(sorted, n, 0.75) -
                              stats::QuantileSorted(sorted, n, 0.25));
}

void FeatureExtractor::Scratch::Finish(const float* rows, float* out) {
  MAGNETO_CHECK(n_ >= 2 && rows_ == n_);
  const size_t n = n_;
  const double dn = static_cast<double>(n);
  double mean[kNumChannels];
  for (size_t c = 0; c < kNumChannels; ++c) mean[c] = sum_[c] / dn;

  // Squared deviations of the 16 channels a std or correlation reads (the
  // motion axes, magnetometer, rotation and speed), sign changes of the
  // motion axes around their means, and the accelerometer cross products.
  const size_t ax = Ch(Channel::kAccX), ay = Ch(Channel::kAccY),
               az = Ch(Channel::kAccZ);
  const size_t mag = Ch(Channel::kMagX), lin = Ch(Channel::kLinAccX),
               gravity = Ch(Channel::kGravityX), rot = Ch(Channel::kRotX),
               speed = Ch(Channel::kSpeed);
  double sq[kNumChannels] = {};
  size_t crossings[kNumChannels] = {};
  bool above[kNumChannels];
  for (size_t c = 0; c < kNumChannels; ++c) above[c] = rows[c] - mean[c] >= 0.0;
  double sxy = 0.0, sxz = 0.0, syz = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const float* x = rows + i * kNumChannels;
    for (size_t c = 0; c < gravity; ++c) {
      const double d = x[c] - mean[c];
      sq[c] += d * d;
    }
    for (size_t c = rot; c < rot + 3; ++c) {
      const double d = x[c] - mean[c];
      sq[c] += d * d;
    }
    const double ds = x[speed] - mean[speed];
    sq[speed] += ds * ds;
    auto cross = [&](size_t c0, size_t c1) {
      for (size_t c = c0; c < c1; ++c) {
        const bool up = (x[c] - mean[c]) >= 0.0;
        crossings[c] += up != above[c];
        above[c] = up;
      }
    };
    cross(0, mag);
    cross(lin, lin + 3);
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
  size_t axis = 0;
  for (const auto& group : kGroups) {
    for (Channel ch : group) {
      const size_t c = Ch(ch);
      *o++ = static_cast<float>(mean[c]);
      *o++ = static_cast<float>(std_dev(ch));
      *o++ = lo_[axis];
      *o++ = hi_[axis];
      *o++ = static_cast<float>(static_cast<double>(crossings[c]) /
                                static_cast<double>(n - 1));
      ++axis;
    }
  }

  // [45..68] magnitude-signal stats.
  SortMagnitudes();
  for (size_t g = 0; g < 3; ++g) {
    MagnitudeStats(g, o);
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
  n_ = 0;  // the histograms are spent: the next window must Begin again
}

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
  scratch->Begin(window.rows());
  for (size_t i = 0; i < window.rows(); ++i) {
    scratch->AddRow(window.RowPtr(i));
  }
  scratch->Finish(window.data(), out);
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
