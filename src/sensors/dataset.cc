#include "sensors/dataset.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace magneto::sensors {

FeatureDataset::FeatureDataset(Matrix features, std::vector<ActivityId> labels)
    : dim_(features.cols()),
      data_(features.storage().begin(), features.storage().end()),
      labels_(std::move(labels)) {
  MAGNETO_CHECK(features.rows() == labels_.size());
}

Matrix FeatureDataset::ToMatrix() const {
  return Matrix(size(), dim_, data_);
}

void FeatureDataset::Append(const float* feature, size_t dim,
                            ActivityId label) {
  if (empty() && dim_ == 0) dim_ = dim;
  MAGNETO_CHECK(dim == dim_);
  data_.insert(data_.end(), feature, feature + dim);
  labels_.push_back(label);
}

void FeatureDataset::Merge(const FeatureDataset& other) {
  if (other.empty()) return;
  if (empty() && dim_ == 0) dim_ = other.dim_;
  MAGNETO_CHECK(dim_ == other.dim_);
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

void FeatureDataset::Shuffle(Rng* rng) {
  std::vector<size_t> perm(size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng->Shuffle(&perm);
  std::vector<float> data(data_.size());
  std::vector<ActivityId> labels(size());
  for (size_t i = 0; i < perm.size(); ++i) {
    std::memcpy(data.data() + i * dim_, Row(perm[i]), dim_ * sizeof(float));
    labels[i] = labels_[perm[i]];
  }
  data_ = std::move(data);
  labels_ = std::move(labels);
}

std::pair<FeatureDataset, FeatureDataset> FeatureDataset::StratifiedSplit(
    double train_fraction, Rng* rng) const {
  FeatureDataset train, test;
  for (ActivityId label : Classes()) {
    std::vector<size_t> idx;
    for (size_t i = 0; i < size(); ++i) {
      if (labels_[i] == label) idx.push_back(i);
    }
    rng->Shuffle(&idx);
    const size_t n_train =
        static_cast<size_t>(train_fraction * static_cast<double>(idx.size()));
    for (size_t j = 0; j < idx.size(); ++j) {
      FeatureDataset& dst = (j < n_train) ? train : test;
      dst.Append(Row(idx[j]), dim_, label);
    }
  }
  return {std::move(train), std::move(test)};
}

FeatureDataset FeatureDataset::FilterByClass(ActivityId label) const {
  return FilterByClasses({label});
}

FeatureDataset FeatureDataset::FilterByClasses(
    const std::vector<ActivityId>& labels) const {
  const std::set<ActivityId> wanted(labels.begin(), labels.end());
  FeatureDataset out;
  for (size_t i = 0; i < size(); ++i) {
    if (wanted.count(labels_[i]) > 0) out.Append(Row(i), dim_, labels_[i]);
  }
  return out;
}

std::map<ActivityId, size_t> FeatureDataset::ClassCounts() const {
  std::map<ActivityId, size_t> counts;
  for (ActivityId label : labels_) ++counts[label];
  return counts;
}

std::vector<ActivityId> FeatureDataset::Classes() const {
  std::set<ActivityId> classes(labels_.begin(), labels_.end());
  return std::vector<ActivityId>(classes.begin(), classes.end());
}

FeatureDataset FeatureDataset::SubsamplePerClass(size_t max_per_class,
                                                 Rng* rng) const {
  FeatureDataset out;
  for (ActivityId label : Classes()) {
    std::vector<size_t> idx;
    for (size_t i = 0; i < size(); ++i) {
      if (labels_[i] == label) idx.push_back(i);
    }
    rng->Shuffle(&idx);
    const size_t keep = std::min(max_per_class, idx.size());
    for (size_t j = 0; j < keep; ++j) {
      out.Append(Row(idx[j]), dim_, label);
    }
  }
  return out;
}

}  // namespace magneto::sensors
