#include "preprocess/segmentation.h"

namespace magneto::preprocess {

void SegmentationConfig::Serialize(BinaryWriter* writer) const {
  writer->WriteU64(window_samples);
  writer->WriteU64(stride);
}

Result<SegmentationConfig> SegmentationConfig::Deserialize(
    BinaryReader* reader) {
  SegmentationConfig config;
  MAGNETO_ASSIGN_OR_RETURN(config.window_samples, reader->ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(config.stride, reader->ReadU64());
  if (config.window_samples < 2 || config.window_samples > kMaxSamples) {
    return Status::Corruption("bad segmentation window: " +
                              std::to_string(config.window_samples));
  }
  if (config.stride == 0 || config.stride > kMaxSamples) {
    return Status::Corruption("bad segmentation stride: " +
                              std::to_string(config.stride));
  }
  return config;
}

Result<std::vector<Matrix>> Segment(const Matrix& samples,
                                    const SegmentationConfig& config) {
  if (config.window_samples == 0) {
    return Status::InvalidArgument("window_samples must be > 0");
  }
  if (config.stride == 0) {
    return Status::InvalidArgument("stride must be > 0");
  }
  std::vector<Matrix> windows;
  if (samples.rows() < config.window_samples) return windows;
  for (size_t start = 0; start + config.window_samples <= samples.rows();
       start += config.stride) {
    windows.push_back(samples.RowSlice(start, start + config.window_samples));
  }
  return windows;
}

Result<std::vector<Matrix>> Segment(const sensors::Recording& recording,
                                    const SegmentationConfig& config) {
  return Segment(recording.samples, config);
}

}  // namespace magneto::preprocess
