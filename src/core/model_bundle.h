#ifndef MAGNETO_CORE_MODEL_BUNDLE_H_
#define MAGNETO_CORE_MODEL_BUNDLE_H_

#include <string>

#include "common/result.h"
#include "core/edge_model.h"
#include "core/ncm_classifier.h"
#include "core/support_set.h"
#include "nn/sequential.h"
#include "preprocess/pipeline.h"
#include "sensors/activity.h"

namespace magneto::core {

/// Bundle wire versions accepted by `ModelBundle::FromString`; any other
/// version (including the retired v1) fails as `Corruption`.
inline constexpr uint32_t kBundleWireV2 = 2;
inline constexpr uint32_t kBundleWireV3 = 3;

/// The single artifact that crosses the cloud -> edge link (§3.2): the
/// pre-processing function (with frozen normaliser stats), the initial ML
/// model, the support set, plus the activity registry and NCM prototypes
/// derived from them.
///
/// Wire format (".magneto" file), v2: magic "MGTO", u32 version, u64 payload
/// length, payload, u32 CRC-32 over everything after the magic (version +
/// length + payload), so header bit-flips report as checksum errors.
///
/// v3 shares v2's header/CRC framing but ships the support set quantized
/// (int8 rows + per-row scale, see `SupportSet::SerializeQuantized`) and
/// re-quantizes the NCM prototypes on load. Paired with a
/// `compress::QuantizeBackbone`d backbone this puts the whole cloud→edge
/// artifact at roughly a quarter of the fp32 v2 bytes. Loading remembers
/// the wire version so round trips preserve it.
/// Move-only (owns the backbone).
struct ModelBundle {
  preprocess::Pipeline pipeline;
  nn::Sequential backbone;
  NcmClassifier classifier;
  sensors::ActivityRegistry registry;
  SupportSet support{200, SelectionStrategy::kHerding};

  /// Wire version this bundle serialises to. `FromString` records the
  /// version it read, so a loaded v3 bundle checkpoints back as v3 instead
  /// of silently inflating to fp32 on the next save.
  uint32_t wire_version = kBundleWireV2;

  ModelBundle() = default;
  /// Deep copy of a deployed model and its support set (backbone weights
  /// included), at the default wire version.
  ModelBundle(const EdgeModel& model, const SupportSet& support_set)
      : pipeline(model.pipeline()),
        backbone(model.backbone().Clone()),
        classifier(model.classifier()),
        registry(model.registry()),
        support(support_set) {}
  ModelBundle(ModelBundle&&) noexcept = default;
  ModelBundle& operator=(ModelBundle&&) noexcept = default;

  /// Serialises the whole bundle (with header and checksum) at
  /// `wire_version`.
  std::string SerializeToString() const;

  /// Parses and checksum-verifies a serialised bundle (wire v2/v3).
  static Result<ModelBundle> FromString(const std::string& bytes);

  /// Crash-safe: writes via `WriteFileAtomic`, so an interrupted save leaves
  /// any previous file at `path` intact.
  Status SaveToFile(const std::string& path) const;
  static Result<ModelBundle> LoadFromFile(const std::string& path);

  /// Loads `path`; if it is missing or corrupt, falls back to
  /// `fallback_path` (the last-known-good checkpoint — see
  /// `EdgeRuntime::SaveCheckpoint`). Increments the
  /// `edge.checkpoint.fallbacks` counter and sets `*used_fallback` when the
  /// fallback was used. Fails with the primary's error when both fail.
  static Result<ModelBundle> LoadFromFileWithFallback(
      const std::string& path, const std::string& fallback_path,
      bool* used_fallback = nullptr);

  /// Exact size of the artifact the edge must store — the paper's "< 5 MB"
  /// claim (§4.2.2) is measured on this.
  size_t SerializedBytes() const { return SerializeToString().size(); }

  /// Consumes the bundle into a runnable edge model. The support set is not
  /// part of `EdgeModel`; move `support` out separately (the edge runtime
  /// owns it next to the model).
  EdgeModel ToEdgeModel() &&;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_MODEL_BUNDLE_H_
