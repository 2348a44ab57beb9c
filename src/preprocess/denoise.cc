#include "preprocess/denoise.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

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
  return config;
}

namespace {

/// Channels whose running state is kept side by side; wider inputs are swept
/// in blocks of this many, so the state lives on the stack.
constexpr size_t kBlock = 32;

// Centred boxcar with shrinking window at the edges. O(n) via a sliding sum
// per channel; the window bounds depend on the row only, so every channel of
// the block adds and subtracts the same rows in the same order.
void MovingAverageBlock(const Matrix& in, Matrix* out, size_t c0,
                        size_t width, size_t window) {
  const size_t n = in.rows();
  const size_t half = window / 2;
  double sum[kBlock] = {};
  size_t lo = 0, hi = 0;  // current [lo, hi) window
  for (size_t i = 0; i < n; ++i) {
    const size_t want_lo = i >= half ? i - half : 0;
    const size_t want_hi = std::min(n, i + half + 1);
    for (; hi < want_hi; ++hi) {
      const float* x = in.RowPtr(hi) + c0;
      for (size_t c = 0; c < width; ++c) sum[c] += x[c];
    }
    for (; lo < want_lo; ++lo) {
      const float* x = in.RowPtr(lo) + c0;
      for (size_t c = 0; c < width; ++c) sum[c] -= x[c];
    }
    const double count = static_cast<double>(hi - lo);
    float* y = out->RowPtr(i) + c0;
    for (size_t c = 0; c < width; ++c) {
      y[c] = static_cast<float>(sum[c] / count);
    }
  }
}

// y[t] = a*x[t] + (1-a)*y[t-1], seeded with the first sample.
void LowPassBlock(const Matrix& in, Matrix* out, size_t c0, size_t width,
                  double alpha) {
  const size_t n = in.rows();
  if (n == 0) return;
  const double keep = 1.0 - alpha;
  double y[kBlock];
  const float* x0 = in.RowPtr(0) + c0;
  float* y0 = out->RowPtr(0) + c0;
  for (size_t c = 0; c < width; ++c) {
    y[c] = x0[c];
    y0[c] = static_cast<float>(y[c]);
  }
  for (size_t i = 1; i < n; ++i) {
    const float* x = in.RowPtr(i) + c0;
    float* yi = out->RowPtr(i) + c0;
    for (size_t c = 0; c < width; ++c) {
      y[c] = alpha * x[c] + keep * y[c];
      yi[c] = static_cast<float>(y[c]);
    }
  }
}

void MedianColumn(const Matrix& in, Matrix* out, size_t col, size_t window) {
  const size_t n = in.rows();
  const size_t half = window / 2;
  std::vector<float> buf;
  buf.reserve(window);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= half ? i - half : 0;
    const size_t hi = std::min(n, i + half + 1);
    buf.clear();
    for (size_t j = lo; j < hi; ++j) buf.push_back(in.At(j, col));
    std::nth_element(buf.begin(), buf.begin() + (buf.size() / 2), buf.end());
    out->At(i, col) = buf[buf.size() / 2];
  }
}

}  // namespace

Status Denoise(const Matrix& samples, const DenoiseConfig& config,
               Matrix* out) {
  MAGNETO_CHECK(out != &samples);
  if (config.method == DenoiseMethod::kNone) {
    out->CopyFrom(samples);
    return Status::Ok();
  }
  if (config.method == DenoiseMethod::kLowPass) {
    if (config.alpha <= 0.0 || config.alpha > 1.0) {
      return Status::InvalidArgument("low-pass alpha must be in (0, 1]");
    }
  } else {
    if (config.window == 0 || config.window % 2 == 0) {
      return Status::InvalidArgument("denoise window must be odd and >= 1");
    }
  }

  out->ResetForOverwrite(samples.rows(), samples.cols());
  for (size_t c0 = 0; c0 < samples.cols(); c0 += kBlock) {
    const size_t width = std::min(kBlock, samples.cols() - c0);
    switch (config.method) {
      case DenoiseMethod::kMovingAverage:
        MovingAverageBlock(samples, out, c0, width, config.window);
        break;
      case DenoiseMethod::kMedian:
        for (size_t c = c0; c < c0 + width; ++c) {
          MedianColumn(samples, out, c, config.window);
        }
        break;
      case DenoiseMethod::kLowPass:
        LowPassBlock(samples, out, c0, width, config.alpha);
        break;
      case DenoiseMethod::kNone:
        break;
    }
  }
  return Status::Ok();
}

Result<Matrix> Denoise(const Matrix& samples, const DenoiseConfig& config) {
  Matrix out;
  MAGNETO_RETURN_IF_ERROR(Denoise(samples, config, &out));
  return out;
}

}  // namespace magneto::preprocess
