#include "preprocess/denoise.h"

#include <algorithm>

#include "common/logging.h"
#include "sensors/sensor_types.h"

namespace magneto::preprocess {

void DenoiseConfig::Serialize(BinaryWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(method));
  writer->WriteU64(window);
  writer->WriteF64(alpha);
}

Result<DenoiseConfig> DenoiseConfig::Deserialize(BinaryReader* reader) {
  DenoiseConfig config;
  MAGNETO_ASSIGN_OR_RETURN(uint8_t method, reader->ReadU8());
  if (method > static_cast<uint8_t>(DenoiseMethod::kLowPass)) {
    return Status::Corruption("bad denoise method: " + std::to_string(method));
  }
  config.method = static_cast<DenoiseMethod>(method);
  MAGNETO_ASSIGN_OR_RETURN(config.window, reader->ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(config.alpha, reader->ReadF64());
  if (Status valid = config.Validate(); !valid.ok()) {
    return Status::Corruption(valid.message());
  }
  return config;
}

Status DenoiseConfig::Validate() const {
  if (method == DenoiseMethod::kLowPass) {
    // Written so that a NaN alpha fails too.
    if (!(alpha > 0.0 && alpha <= 1.0)) {
      return Status::InvalidArgument("low-pass alpha must be in (0, 1]");
    }
  } else if (method != DenoiseMethod::kNone) {
    if (window == 0 || window % 2 == 0) {
      return Status::InvalidArgument("denoise window must be odd and >= 1");
    }
  }
  return Status::Ok();
}

Status RowDenoiser::Begin(const DenoiseConfig& config, size_t rows,
                          size_t cols) {
  MAGNETO_RETURN_IF_ERROR(config.Validate());
  config_ = config;
  rows_ = rows;
  cols_ = cols;
  half_ = config.window / 2;
  pushed_ = emitted_ = lo_ = 0;
  state_.assign(config.method == DenoiseMethod::kNone ? 0 : cols, 0.0);
  return Status::Ok();
}

size_t RowDenoiser::Push(const float* raw, float* out) {
  return cols_ == sensors::kNumChannels
             ? PushRow<sensors::kNumChannels>(raw, out)
             : PushRow<0>(raw, out);
}

size_t RowDenoiser::Finish(const float* raw, float* out) {
  MAGNETO_CHECK(pushed_ == rows_);
  while (emitted_ < rows_) {
    if (config_.method == DenoiseMethod::kMovingAverage) {
      if (cols_ == sensors::kNumChannels) {
        EmitMovingAverage<sensors::kNumChannels>(raw, emitted_, out);
      } else {
        EmitMovingAverage<0>(raw, emitted_, out);
      }
    } else {
      EmitMedian(raw, emitted_, out);
    }
  }
  return rows_;
}

template <size_t kCols>
size_t RowDenoiser::PushRow(const float* raw, float* out) {
  MAGNETO_CHECK(pushed_ < rows_);
  const size_t cols = kCols != 0 ? kCols : cols_;
  const size_t k = pushed_++;
  const float* x = raw + k * cols;
  double* s = state_.data();
  switch (config_.method) {
    case DenoiseMethod::kNone:
      std::copy(x, x + cols, out + k * cols);
      emitted_ = pushed_;
      break;
    case DenoiseMethod::kLowPass: {
      // y[t] = a*x[t] + (1-a)*y[t-1], seeded with the first sample.
      float* y = out + k * cols;
      if (k == 0) {
        for (size_t c = 0; c < cols; ++c) s[c] = x[c];
      } else {
        const double alpha = config_.alpha, keep = 1.0 - alpha;
        for (size_t c = 0; c < cols; ++c) s[c] = alpha * x[c] + keep * s[c];
      }
      for (size_t c = 0; c < cols; ++c) y[c] = static_cast<float>(s[c]);
      emitted_ = pushed_;
      break;
    }
    case DenoiseMethod::kMovingAverage:
      for (size_t c = 0; c < cols; ++c) s[c] += x[c];
      if (k >= half_) EmitMovingAverage<kCols>(raw, k - half_, out);
      break;
    case DenoiseMethod::kMedian:
      if (k >= half_) EmitMedian(raw, k - half_, out);
      break;
  }
  return emitted_;
}

// Centred boxcar with a shrinking window at the edges: row i averages raw
// rows [i - half, i + half] clipped to the signal, all of which have been
// added to the sliding sums; the rows that left the window are subtracted
// first, oldest first.
template <size_t kCols>
void RowDenoiser::EmitMovingAverage(const float* raw, size_t i, float* out) {
  const size_t cols = kCols != 0 ? kCols : cols_;
  double* s = state_.data();
  const size_t want_lo = i >= half_ ? i - half_ : 0;
  for (; lo_ < want_lo; ++lo_) {
    const float* x = raw + lo_ * cols;
    for (size_t c = 0; c < cols; ++c) s[c] -= x[c];
  }
  const double count = static_cast<double>(pushed_ - lo_);
  float* y = out + i * cols;
  for (size_t c = 0; c < cols; ++c) y[c] = static_cast<float>(s[c] / count);
  emitted_ = i + 1;
}

// Centred running median over the same clipped window, one channel at a
// time through nth_element on the window in row order.
void RowDenoiser::EmitMedian(const float* raw, size_t i, float* out) {
  const size_t lo = i >= half_ ? i - half_ : 0;
  float* y = out + i * cols_;
  for (size_t c = 0; c < cols_; ++c) {
    median_.clear();
    for (size_t j = lo; j < pushed_; ++j) median_.push_back(raw[j * cols_ + c]);
    const auto mid = median_.begin() + (median_.size() / 2);
    std::nth_element(median_.begin(), mid, median_.end());
    y[c] = *mid;
  }
  emitted_ = i + 1;
}

Status Denoise(const Matrix& samples, const DenoiseConfig& config,
               Matrix* out) {
  MAGNETO_CHECK(out != &samples);
  RowDenoiser denoiser;
  MAGNETO_RETURN_IF_ERROR(
      denoiser.Begin(config, samples.rows(), samples.cols()));
  out->ResetForOverwrite(samples.rows(), samples.cols());
  for (size_t i = 0; i < samples.rows(); ++i) {
    denoiser.Push(samples.data(), out->data());
  }
  denoiser.Finish(samples.data(), out->data());
  return Status::Ok();
}

Result<Matrix> Denoise(const Matrix& samples, const DenoiseConfig& config) {
  Matrix out;
  MAGNETO_RETURN_IF_ERROR(Denoise(samples, config, &out));
  return out;
}

}  // namespace magneto::preprocess
