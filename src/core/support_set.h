#ifndef MAGNETO_CORE_SUPPORT_SET_H_
#define MAGNETO_CORE_SUPPORT_SET_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/serial.h"
#include "core/embedder.h"
#include "sensors/dataset.h"

namespace magneto::core {

/// Exemplar-selection policy for the support set.
enum class SelectionStrategy : uint8_t {
  kRandom = 0,     ///< uniform subsample
  kHerding = 1,    ///< iCaRL-style: greedily match the class-mean embedding
  kReservoir = 2,  ///< streaming reservoir (for AddStreamingSample)
};

/// The paper's support set (§3.2 item 3): a capacity-bounded store of
/// representative feature vectors per class, shipped from cloud to edge.
///
/// Its two missions, quoted from the paper: (i) computing the class
/// prototypes for the NCM classifier, (ii) forming the retraining set (mixed
/// with freshly captured data) during incremental updates. The default
/// capacity of 200 observations/class costs ~0.5 MB per class in fp32 —
/// `MemoryBytes()` reports the exact figure for the memory benchmarks.
class SupportSet {
 public:
  SupportSet(size_t capacity_per_class, SelectionStrategy strategy)
      : capacity_per_class_(capacity_per_class), strategy_(strategy) {}

  size_t capacity_per_class() const { return capacity_per_class_; }
  SelectionStrategy strategy() const { return strategy_; }

  /// Selects up to `capacity_per_class` exemplars from `class_data` (which
  /// must be single-class) and stores them, replacing any previous exemplars
  /// of that class — replacement is exactly the paper's calibration move.
  /// `embedder` is required for kHerding (may be null otherwise; if null with
  /// kHerding, herding falls back to feature-space means).
  Status SetClass(sensors::ActivityId id,
                  const sensors::FeatureDataset& class_data,
                  Embedder* embedder, Rng* rng);

  /// Streaming insertion for the reservoir strategy: keeps a uniform sample
  /// of everything ever offered for the class.
  Status AddStreamingSample(sensors::ActivityId id,
                            const std::vector<float>& feature, Rng* rng);

  Status RemoveClass(sensors::ActivityId id);

  bool HasClass(sensors::ActivityId id) const {
    return exemplars_.count(id) > 0;
  }
  std::vector<sensors::ActivityId> Classes() const;
  size_t NumClasses() const { return exemplars_.size(); }

  /// Exemplar count of one class (0 if absent).
  size_t ClassSize(sensors::ActivityId id) const;

  /// Total exemplars across classes.
  size_t TotalSize() const;

  /// Exemplars of one class as a (count x dim) matrix.
  Result<Matrix> ClassExemplars(sensors::ActivityId id) const;

  /// All exemplars as one labeled dataset (the retraining set).
  sensors::FeatureDataset AsDataset() const;

  /// All exemplars except class `excluded` (the distillation set when
  /// calibrating `excluded`).
  sensors::FeatureDataset DatasetExcluding(sensors::ActivityId excluded) const;

  /// Exact bytes of exemplar payload (fp32), the paper's C2 metric.
  size_t MemoryBytes() const;

  void Serialize(BinaryWriter* writer) const;
  static Result<SupportSet> Deserialize(BinaryReader* reader);

  /// Bundle wire v3 payload: identical section layout to `Serialize`, but
  /// each exemplar row ships as a symmetric int8 vector plus one f32 scale —
  /// ~4x fewer bytes over the cloud→edge link. Rows are dequantized to fp32
  /// on load, so everything downstream of `DeserializeQuantized` sees a
  /// normal support set (with per-element error ≤ scale/2).
  void SerializeQuantized(BinaryWriter* writer) const;
  static Result<SupportSet> DeserializeQuantized(BinaryReader* reader);

 private:
  /// How each exemplar row goes on the wire: a length-prefixed fp32 vector
  /// (wire v2), or one f32 scale plus a length-prefixed int8 vector (v3).
  enum class RowEncoding { kF32, kInt8 };

  /// The one codec behind the four public entry points: header, then per
  /// class (id, reservoir count, rows), each row in `encoding`. The reader
  /// returns Corruption for a dim over 2^20, and for a repeated class id or
  /// a class holding more rows than `capacity_per_class`, neither of which
  /// a writer can produce.
  void Write(BinaryWriter* writer, RowEncoding encoding) const;
  static Result<SupportSet> Read(BinaryReader* reader, RowEncoding encoding);

  size_t capacity_per_class_;
  SelectionStrategy strategy_;
  size_t dim_ = 0;
  std::map<sensors::ActivityId, std::vector<std::vector<float>>> exemplars_;
  /// Total samples ever offered per class (reservoir bookkeeping).
  std::map<sensors::ActivityId, uint64_t> stream_counts_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_SUPPORT_SET_H_
