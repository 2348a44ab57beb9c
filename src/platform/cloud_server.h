#ifndef MAGNETO_PLATFORM_CLOUD_SERVER_H_
#define MAGNETO_PLATFORM_CLOUD_SERVER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/cloud_initializer.h"
#include "core/edge_model.h"
#include "core/model_bundle.h"
#include "sensors/activity.h"
#include "sensors/synthetic_generator.h"

namespace magneto::platform {

/// The cloud side of both Figure-1 protocols.
///
/// For the *edge* protocol it plays its one legitimate role: run the offline
/// initialization and serve the resulting bundle bytes. For the *cloud*
/// (baseline) protocol it additionally hosts the model and answers per-window
/// inference requests — the architecture MAGNETO argues against.
///
/// ## Thread-safety contract
///
/// `Pretrain` / `AdoptBundle` are the single-writer phase: call exactly one
/// of them, once, before publishing the server to other threads. Every
/// serving method after that point is const and safe to call from any number
/// of threads concurrently:
///   * `ServeBundleBytes` reads the immutable fp32 encoding.
///   * `ServeQuantizedBundleBytes` builds the wire-v3 encoding exactly once
///     under a `std::once_flag` (concurrent first callers block until the
///     winner finishes) and serves the immutable cached bytes thereafter.
///   * `RemoteInfer` runs the server-side model through a thread-local
///     forward workspace — the backbone's `Forward` is const, so N
///     inference requests share the weights with zero locks.
/// `ProtocolsTest.MultiDeviceConcurrentEdgeProtocolRuns` and the
/// `CloudServerTest.Concurrent*` cases hold it to this under TSan.
class CloudServer {
 public:
  explicit CloudServer(core::CloudConfig config)
      : initializer_(std::move(config)) {}

  /// Offline step: trains on `corpus` and retains the model server-side.
  Status Pretrain(const std::vector<sensors::LabeledRecording>& corpus,
                  const sensors::ActivityRegistry& registry);

  /// Adopts an already-trained bundle (e.g. loaded from disk) instead of
  /// pretraining; `Pretrain` trains and then delegates here. Same
  /// single-writer rules as `Pretrain`.
  Status AdoptBundle(core::ModelBundle bundle);

  bool pretrained() const { return model_ != nullptr; }

  /// Serialised bundle for the cloud -> edge transfer. Requires Pretrain.
  Result<std::string> ServeBundleBytes() const;

  /// Wire-v3 quantized variant for bandwidth-constrained delivery: int8
  /// backbone (`compress::QuantizeBackbone`), NCM prototypes rebuilt through
  /// the quantized embedding and switched to int8 scans, support set shipped
  /// as int8 rows — roughly a quarter of the fp32 bundle's bytes. Built
  /// exactly once on first call (thread-safe), then served from the
  /// immutable cache. Requires Pretrain.
  Result<std::string> ServeQuantizedBundleBytes() const;

  /// Re-encodes a serialized fp32 (wire v2) bundle as the quantized wire-v3
  /// variant. Pure function of the bytes: `ServeQuantizedBundleBytes` builds
  /// its cache with it, and perfbench's fleet phase encodes an enrolled
  /// bundle with it without a live server.
  static Result<std::string> EncodeQuantizedBundle(
      const std::string& fp32_bytes);

  /// Cloud-protocol inference endpoint: classifies one preprocessed feature
  /// vector that the edge uplinked. Requires Pretrain. Thread-safe: the
  /// shared model is read-only here and scratch state is thread-local.
  Result<core::NamedPrediction> RemoteInfer(
      const std::vector<float>& features) const;

  /// Size in bytes of an inference reply (activity id + confidence).
  static constexpr size_t kResultBytes = 16;

 private:
  core::CloudInitializer initializer_;
  std::string bundle_bytes_;
  /// Lazy wire-v3 cache. `quant_once_` guards the one-time build; after the
  /// `call_once` both fields are immutable, so readers need no lock.
  mutable std::once_flag quant_once_;
  mutable std::string quantized_bundle_bytes_;
  mutable Status quant_status_ = Status::Ok();
  std::unique_ptr<core::EdgeModel> model_;  ///< server-side inference copy
};

}  // namespace magneto::platform

#endif  // MAGNETO_PLATFORM_CLOUD_SERVER_H_
