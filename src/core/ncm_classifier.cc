#include "core/ncm_classifier.h"

#include <algorithm>
#include <cmath>

namespace magneto::core {

Status NcmClassifier::SetPrototypeFromEmbeddings(sensors::ActivityId id,
                                                 const Matrix& embeddings) {
  if (embeddings.rows() == 0 || embeddings.cols() == 0) {
    return Status::InvalidArgument("no embeddings for class " +
                                   std::to_string(id));
  }
  if (rows_.dim() == 0) {
    rows_ = ScanRows(embeddings.cols());
  } else if (embeddings.cols() != rows_.dim()) {
    return Status::InvalidArgument("embedding dim mismatch: expected " +
                                   std::to_string(rows_.dim()) + ", got " +
                                   std::to_string(embeddings.cols()));
  }
  const Matrix mean = embeddings.ColMean();
  size_t row = 0;
  if (Locate(id, &row)) {
    rows_.Erase(row);  // overwrite in place: same row, new mean
  } else {
    ids_.insert(ids_.begin() + row, id);
  }
  rows_.Insert(row, mean.RowPtr(0));
  return Status::Ok();
}

bool NcmClassifier::Locate(sensors::ActivityId id, size_t* row) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  *row = static_cast<size_t>(it - ids_.begin());
  return it != ids_.end() && *it == id;
}

Status NcmClassifier::QuantizePrototypes() {
  if (ids_.empty()) {
    return Status::FailedPrecondition("classifier has no prototypes");
  }
  rows_.Quantize();
  return Status::Ok();
}

Result<NcmClassifier> NcmClassifier::FromSupportSet(const SupportSet& support,
                                                    Embedder* embedder) {
  if (embedder == nullptr) {
    return Status::InvalidArgument("embedder must not be null");
  }
  const std::vector<sensors::ActivityId> ids = support.Classes();
  if (ids.empty()) {
    return Status::InvalidArgument("support set is empty");
  }

  // Embed every exemplar in one batched forward: one large pool-parallel
  // GEMM per layer instead of num_classes small ones. Row-wise kernels make
  // the stacked embeddings identical to per-class ones. `AsDataset` stacks
  // the classes in ascending id order, the order of `ids`.
  const sensors::FeatureDataset all = support.AsDataset();
  const Matrix embeddings = embedder->Embed(all.ToMatrix());

  NcmClassifier ncm;
  size_t row = 0;
  for (sensors::ActivityId id : ids) {
    size_t end = row;
    while (end < all.size() && all.Label(end) == id) ++end;
    if (end == row) {
      return Status::InvalidArgument("no embeddings for class " +
                                     std::to_string(id));
    }
    MAGNETO_RETURN_IF_ERROR(
        ncm.SetPrototypeFromEmbeddings(id, embeddings.RowSlice(row, end)));
    row = end;
  }
  return ncm;
}

Status NcmClassifier::RemoveClass(sensors::ActivityId id) {
  size_t row = 0;
  if (!Locate(id, &row)) {
    return Status::NotFound("class not in classifier: " + std::to_string(id));
  }
  rows_.Erase(row);
  ids_.erase(ids_.begin() + row);
  return Status::Ok();
}

Result<std::vector<float>> NcmClassifier::Prototype(
    sensors::ActivityId id) const {
  size_t row = 0;
  if (!Locate(id, &row)) {
    return Status::NotFound("class not in classifier: " + std::to_string(id));
  }
  std::vector<float> proto(rows_.dim());
  rows_.CopyRow(row, proto.data());
  return proto;
}

Status NcmClassifier::DistancesInto(const float* embedding, size_t n,
                                    Scratch* scratch) const {
  if (ids_.empty()) {
    return Status::FailedPrecondition("classifier has no prototypes");
  }
  if (n != rows_.dim()) {
    return Status::InvalidArgument("embedding dim " + std::to_string(n) +
                                   " != classifier dim " +
                                   std::to_string(rows_.dim()));
  }
  const ScanRows::Query query = rows_.Prepare(embedding, &scratch->q_query);
  std::vector<std::pair<sensors::ActivityId, double>>& out = scratch->dist;
  out.clear();
  out.reserve(ids_.size());
  for (size_t r = 0; r < ids_.size(); ++r) {
    const double d2 = rows_.SquaredDistance(query, r);
    // fp32 rows take the float sqrt of the float d², int8 rows the double
    // sqrt of the exact-rescale d²: `Prediction::distance` keeps the
    // rounding it has always had.
    out.emplace_back(ids_[r], rows_.quantized()
                                  ? std::sqrt(d2)
                                  : std::sqrt(static_cast<float>(d2)));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return Status::Ok();
}

Result<std::vector<std::pair<sensors::ActivityId, double>>>
NcmClassifier::Distances(const float* embedding, size_t n) const {
  Scratch local;
  MAGNETO_RETURN_IF_ERROR(DistancesInto(embedding, n, &local));
  return std::move(local.dist);
}

Result<Prediction> NcmClassifier::Classify(const float* embedding, size_t n,
                                           Scratch* scratch) const {
  if (scratch == nullptr) {
    return Status::InvalidArgument("scratch must not be null");
  }
  MAGNETO_RETURN_IF_ERROR(DistancesInto(embedding, n, scratch));

  const std::vector<std::pair<sensors::ActivityId, double>>& distances =
      scratch->dist;
  Prediction pred;
  pred.activity = distances.front().first;
  pred.distance = distances.front().second;
  // Confidence: softmax over negative distances.
  double denom = 0.0;
  const double dmin = distances.front().second;
  for (const auto& [id, d] : distances) denom += std::exp(dmin - d);
  pred.confidence = 1.0 / denom;
  return pred;
}

Result<Prediction> NcmClassifier::ClassifyWithRejection(
    const float* embedding, size_t n, double reject_threshold,
    Scratch* scratch) const {
  MAGNETO_ASSIGN_OR_RETURN(Prediction pred, Classify(embedding, n, scratch));
  if (pred.distance > reject_threshold) pred.activity = kUnknownActivity;
  return pred;
}

void NcmClassifier::Serialize(BinaryWriter* writer) const {
  writer->WriteU64(rows_.dim());
  writer->WriteU64(ids_.size());
  std::vector<float> proto(rows_.dim());
  for (size_t r = 0; r < ids_.size(); ++r) {
    writer->WriteI64(ids_[r]);
    rows_.CopyRow(r, proto.data());
    writer->WriteF32Vector(proto);
  }
}

Result<NcmClassifier> NcmClassifier::Deserialize(BinaryReader* reader) {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t dim, reader->ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  if (dim == 0 && n > 0) {
    return Status::Corruption("zero-width prototypes");
  }
  NcmClassifier ncm;
  ncm.rows_ = ScanRows(dim);
  for (uint64_t i = 0; i < n; ++i) {
    MAGNETO_ASSIGN_OR_RETURN(int64_t id, reader->ReadI64());
    MAGNETO_ASSIGN_OR_RETURN(std::vector<float> proto,
                             reader->ReadF32Vector());
    if (proto.size() != dim) {
      return Status::Corruption("prototype dim mismatch");
    }
    size_t row = 0;
    if (ncm.Locate(id, &row)) {
      return Status::Corruption("duplicate prototype class id " +
                                std::to_string(id));
    }
    ncm.ids_.insert(ncm.ids_.begin() + row, id);
    ncm.rows_.Insert(row, proto.data());
  }
  return ncm;
}

}  // namespace magneto::core
