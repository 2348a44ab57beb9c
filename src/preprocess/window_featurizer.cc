#include "preprocess/window_featurizer.h"

#include "sensors/sensor_types.h"

namespace magneto::preprocess {

void WindowFeaturizer::Begin(const DenoiseConfig& denoise, size_t n) {
  n_ = n;
  pushed_ = swept_ = 0;
  status_ = denoiser_.Begin(denoise, n, sensors::kNumChannels);
  if (status_.ok() && n < 2) {
    status_ = Status::InvalidArgument("window must have at least 2 samples");
  }
  if (!status_.ok()) return;
  denoised_.ResetForOverwrite(n, sensors::kNumChannels);
  features_.Begin(n);
}

void WindowFeaturizer::Push(const float* raw) {
  MAGNETO_CHECK(pushed_ < n_);
  ++pushed_;
  if (!status_.ok()) return;
  const size_t final_rows = denoiser_.Push(raw, denoised_.data());
  for (; swept_ < final_rows; ++swept_) {
    features_.AddRow(denoised_.RowPtr(swept_));
  }
}

Status WindowFeaturizer::Finish(const float* raw, float* out) {
  MAGNETO_CHECK(pushed_ == n_);
  MAGNETO_RETURN_IF_ERROR(status_);
  denoiser_.Finish(raw, denoised_.data());
  for (; swept_ < n_; ++swept_) features_.AddRow(denoised_.RowPtr(swept_));
  features_.Finish(denoised_.data(), out);
  return Status::Ok();
}

}  // namespace magneto::preprocess
