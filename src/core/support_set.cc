#include "core/support_set.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/qgemm.h"

namespace magneto::core {

namespace {

/// Greedy herding (Welling 2009, as used by iCaRL): pick exemplars whose
/// running embedding mean tracks the true class mean as closely as possible.
/// `embeddings` is (n x d); returns `k` distinct row indices in pick order.
std::vector<size_t> HerdingSelect(const Matrix& embeddings, size_t k) {
  const size_t n = embeddings.rows();
  const size_t d = embeddings.cols();
  Matrix mean = embeddings.ColMean();

  std::vector<size_t> picked;
  picked.reserve(k);
  std::vector<bool> used(n, false);
  std::vector<double> running_sum(d, 0.0);

  for (size_t step = 0; step < k; ++step) {
    double best_dist = std::numeric_limits<double>::max();
    size_t best = n;
    const double inv = 1.0 / static_cast<double>(step + 1);
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const float* e = embeddings.RowPtr(i);
      double dist = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double candidate_mean = (running_sum[j] + e[j]) * inv;
        const double diff = candidate_mean - mean.data()[j];
        dist += diff * diff;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    if (best == n) break;
    used[best] = true;
    picked.push_back(best);
    const float* e = embeddings.RowPtr(best);
    for (size_t j = 0; j < d; ++j) running_sum[j] += e[j];
  }
  return picked;
}

}  // namespace

Status SupportSet::SetClass(sensors::ActivityId id,
                            const sensors::FeatureDataset& class_data,
                            Embedder* embedder, Rng* rng) {
  if (class_data.empty()) {
    return Status::InvalidArgument("class data is empty");
  }
  for (sensors::ActivityId label : class_data.labels()) {
    if (label != id) {
      return Status::InvalidArgument(
          "class data contains a foreign label: " + std::to_string(label));
    }
  }
  if (class_data.dim() == 0) {
    // A 0-dim class would poison `dim_` (and the set's row invariants) for
    // every later well-formed insertion.
    return Status::InvalidArgument("class data has empty feature rows");
  }
  if (dim_ == 0) {
    dim_ = class_data.dim();
  } else if (class_data.dim() != dim_) {
    return Status::InvalidArgument("feature dim mismatch: expected " +
                                   std::to_string(dim_) + ", got " +
                                   std::to_string(class_data.dim()));
  }

  const size_t keep = std::min(capacity_per_class_, class_data.size());
  std::vector<size_t> selected;
  switch (strategy_) {
    case SelectionStrategy::kHerding: {
      // Herd in embedding space when a model is available; the class mean in
      // that space is exactly the NCM prototype we want the exemplars to
      // reconstruct. Without a model, feature space is the best proxy.
      Matrix space = embedder != nullptr
                         ? embedder->Embed(class_data.ToMatrix())
                         : class_data.ToMatrix();
      selected = HerdingSelect(space, keep);
      break;
    }
    case SelectionStrategy::kRandom:
    case SelectionStrategy::kReservoir: {
      if (rng == nullptr) {
        return Status::InvalidArgument("random selection requires an rng");
      }
      selected = rng->SampleWithoutReplacement(class_data.size(), keep);
      break;
    }
  }

  std::vector<std::vector<float>> rows;
  rows.reserve(selected.size());
  for (size_t i : selected) rows.push_back(class_data.RowVector(i));
  exemplars_[id] = std::move(rows);
  stream_counts_[id] = class_data.size();
  return Status::Ok();
}

Status SupportSet::AddStreamingSample(sensors::ActivityId id,
                                      const std::vector<float>& feature,
                                      Rng* rng) {
  if (strategy_ != SelectionStrategy::kReservoir) {
    return Status::FailedPrecondition(
        "streaming insertion requires the reservoir strategy");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("reservoir sampling requires an rng");
  }
  if (feature.empty()) {
    // Accepting one empty feature while dim_ == 0 would pin the set's
    // dimension to 0 and plant a zero-width exemplar row.
    return Status::InvalidArgument("feature is empty");
  }
  if (dim_ == 0) {
    dim_ = feature.size();
  } else if (feature.size() != dim_) {
    return Status::InvalidArgument("feature dim mismatch");
  }
  std::vector<std::vector<float>>& rows = exemplars_[id];
  const uint64_t seen = ++stream_counts_[id];
  if (rows.size() < capacity_per_class_) {
    rows.push_back(feature);
  } else {
    // Classic reservoir: replace with probability capacity/seen.
    const uint64_t slot = static_cast<uint64_t>(
        rng->UniformInt(0, static_cast<int64_t>(seen) - 1));
    if (slot < capacity_per_class_) rows[slot] = feature;
  }
  return Status::Ok();
}

Status SupportSet::RemoveClass(sensors::ActivityId id) {
  if (exemplars_.erase(id) == 0) {
    return Status::NotFound("class not in support set: " + std::to_string(id));
  }
  stream_counts_.erase(id);
  return Status::Ok();
}

std::vector<sensors::ActivityId> SupportSet::Classes() const {
  std::vector<sensors::ActivityId> out;
  out.reserve(exemplars_.size());
  for (const auto& [id, rows] : exemplars_) out.push_back(id);
  return out;
}

size_t SupportSet::ClassSize(sensors::ActivityId id) const {
  auto it = exemplars_.find(id);
  return it == exemplars_.end() ? 0 : it->second.size();
}

size_t SupportSet::TotalSize() const {
  size_t n = 0;
  for (const auto& [id, rows] : exemplars_) n += rows.size();
  return n;
}

Result<Matrix> SupportSet::ClassExemplars(sensors::ActivityId id) const {
  auto it = exemplars_.find(id);
  if (it == exemplars_.end()) {
    return Status::NotFound("class not in support set: " + std::to_string(id));
  }
  const std::vector<std::vector<float>>& rows = it->second;
  Matrix out(rows.size(), dim_);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.RowPtr(i), rows[i].data(), dim_ * sizeof(float));
  }
  return out;
}

sensors::FeatureDataset SupportSet::AsDataset() const {
  sensors::FeatureDataset out;
  for (const auto& [id, rows] : exemplars_) {
    for (const std::vector<float>& row : rows) out.Append(row, id);
  }
  return out;
}

sensors::FeatureDataset SupportSet::DatasetExcluding(
    sensors::ActivityId excluded) const {
  sensors::FeatureDataset out;
  for (const auto& [id, rows] : exemplars_) {
    if (id == excluded) continue;
    for (const std::vector<float>& row : rows) out.Append(row, id);
  }
  return out;
}

size_t SupportSet::MemoryBytes() const {
  return TotalSize() * dim_ * sizeof(float);
}

void SupportSet::Serialize(BinaryWriter* writer) const {
  Write(writer, RowEncoding::kF32);
}

void SupportSet::SerializeQuantized(BinaryWriter* writer) const {
  Write(writer, RowEncoding::kInt8);
}

Result<SupportSet> SupportSet::Deserialize(BinaryReader* reader) {
  return Read(reader, RowEncoding::kF32);
}

Result<SupportSet> SupportSet::DeserializeQuantized(BinaryReader* reader) {
  return Read(reader, RowEncoding::kInt8);
}

void SupportSet::Write(BinaryWriter* writer, RowEncoding encoding) const {
  writer->WriteU64(capacity_per_class_);
  writer->WriteU8(static_cast<uint8_t>(strategy_));
  writer->WriteU64(dim_);
  writer->WriteU64(exemplars_.size());
  std::vector<int8_t> q(dim_);
  for (const auto& [id, rows] : exemplars_) {
    writer->WriteI64(id);
    writer->WriteU64(stream_counts_.count(id) ? stream_counts_.at(id) : 0);
    writer->WriteU64(rows.size());
    for (const std::vector<float>& row : rows) {
      if (encoding == RowEncoding::kF32) {
        writer->WriteF32Vector(row);
      } else {
        writer->WriteF32(QuantizeRowInt8(row.data(), dim_, q.data()));
        writer->WriteI8Vector(q);
      }
    }
  }
}

Result<SupportSet> SupportSet::Read(BinaryReader* reader,
                                    RowEncoding encoding) {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t capacity, reader->ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(uint8_t strategy, reader->ReadU8());
  if (strategy > static_cast<uint8_t>(SelectionStrategy::kReservoir)) {
    return Status::Corruption("bad selection strategy: " +
                              std::to_string(strategy));
  }
  SupportSet set(capacity, static_cast<SelectionStrategy>(strategy));
  MAGNETO_ASSIGN_OR_RETURN(set.dim_, reader->ReadU64());
  constexpr uint64_t kMaxDim = 1 << 20;
  if (set.dim_ > kMaxDim) {
    return Status::Corruption("support dim out of range");
  }
  MAGNETO_ASSIGN_OR_RETURN(uint64_t num_classes, reader->ReadU64());
  for (uint64_t c = 0; c < num_classes; ++c) {
    MAGNETO_ASSIGN_OR_RETURN(int64_t id, reader->ReadI64());
    MAGNETO_ASSIGN_OR_RETURN(uint64_t seen, reader->ReadU64());
    MAGNETO_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
    if (set.exemplars_.count(id) > 0) {
      return Status::Corruption("duplicate support class id " +
                                std::to_string(id));
    }
    if (rows > capacity) {
      return Status::Corruption("support class " + std::to_string(id) +
                                " holds " + std::to_string(rows) +
                                " rows, over capacity " +
                                std::to_string(capacity));
    }
    std::vector<std::vector<float>> data;
    // `rows` comes off the wire: cap the reservation so a hostile count
    // cannot force a giant allocation before the per-row reads fail.
    data.reserve(std::min<uint64_t>(rows, 4096));
    for (uint64_t r = 0; r < rows; ++r) {
      std::vector<float> row;
      if (encoding == RowEncoding::kF32) {
        // Bounded by the already-validated dim: a corrupt length field
        // fails before allocating.
        MAGNETO_ASSIGN_OR_RETURN(row, reader->ReadF32VectorExpected(set.dim_));
      } else {
        MAGNETO_ASSIGN_OR_RETURN(float scale, reader->ReadF32());
        if (!std::isfinite(scale) || scale <= 0.0f) {
          return Status::Corruption("support row scale not finite-positive");
        }
        MAGNETO_ASSIGN_OR_RETURN(std::vector<int8_t> q,
                                 reader->ReadI8VectorExpected(set.dim_));
        row.resize(set.dim_);
        for (size_t i = 0; i < row.size(); ++i) {
          row[i] = static_cast<float>(q[i]) * scale;
        }
      }
      // A flipped exponent bit parses into inf/NaN (or a scale whose
      // product with a code overflows); such a row would poison every
      // prototype and distance built from it.
      if (!std::all_of(row.begin(), row.end(),
                       [](float v) { return std::isfinite(v); })) {
        return Status::Corruption("support class " + std::to_string(id) +
                                  " holds a non-finite exemplar");
      }
      data.push_back(std::move(row));
    }
    set.exemplars_[id] = std::move(data);
    set.stream_counts_[id] = seen;
  }
  return set;
}

}  // namespace magneto::core
