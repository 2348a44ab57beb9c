#include "core/model_bundle.h"

#include <cstring>
#include <string>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace magneto::core {

namespace {
constexpr char kMagic[4] = {'M', 'G', 'T', 'O'};
/// The trailing CRC covers version + length + body, so any header damage is
/// a checksum error. v3 keeps v2's framing; only the support-set section
/// encoding differs.
constexpr size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kFooterBytes = sizeof(uint32_t);

/// Parses the five bundle sections out of a bounds-checked body reader.
/// A v3 body carries the quantized support-set encoding and restores the
/// classifier's int8 scan state.
Result<ModelBundle> ParseBody(BinaryReader* body_reader, uint32_t version) {
  ModelBundle bundle;
  bundle.wire_version = version;
  MAGNETO_ASSIGN_OR_RETURN(bundle.pipeline,
                           preprocess::Pipeline::Deserialize(body_reader));
  MAGNETO_ASSIGN_OR_RETURN(bundle.backbone,
                           nn::Sequential::Deserialize(body_reader));
  MAGNETO_ASSIGN_OR_RETURN(bundle.classifier,
                           NcmClassifier::Deserialize(body_reader));
  MAGNETO_ASSIGN_OR_RETURN(bundle.registry,
                           sensors::ActivityRegistry::Deserialize(body_reader));
  if (version == kBundleWireV3) {
    MAGNETO_ASSIGN_OR_RETURN(bundle.support,
                             SupportSet::DeserializeQuantized(body_reader));
    // A v3 bundle was written by a quantized deployment; the serialized
    // prototypes are dequantized int8 vectors, so re-quantizing restores
    // the int8 scan state exactly.
    if (bundle.classifier.num_classes() > 0) {
      MAGNETO_RETURN_IF_ERROR(bundle.classifier.QuantizePrototypes());
    }
  } else {
    MAGNETO_ASSIGN_OR_RETURN(bundle.support,
                             SupportSet::Deserialize(body_reader));
  }
  if (!body_reader->AtEnd()) {
    return Status::Corruption("trailing bytes in bundle body");
  }
  // Well-formed sections can still disagree; such a bundle would load and
  // fail on every window, where a checkpoint load should fall back.
  const preprocess::Pipeline& pipeline = bundle.pipeline;
  const preprocess::Normalizer& norm = pipeline.normalizer();
  size_t width = pipeline.feature_dim();
  if (norm.method() != pipeline.config().normalization ||
      (norm.method() != preprocess::NormalizationMethod::kNone &&
       norm.dim() != width)) {
    return Status::Corruption("normalizer disagrees with the pipeline config");
  }
  const size_t in = bundle.backbone.InputDim();
  if (in != 0 && in != width) {
    return Status::Corruption("backbone input width " + std::to_string(in) +
                              " != feature width " + std::to_string(width));
  }
  for (size_t i = 0; i < bundle.backbone.num_layers(); ++i) {
    width = bundle.backbone.layer(i).output_dim(width);
  }
  if (bundle.classifier.num_classes() > 0 &&
      width != bundle.classifier.embedding_dim()) {
    return Status::Corruption(
        "backbone output width " + std::to_string(width) +
        " != classifier embedding width " +
        std::to_string(bundle.classifier.embedding_dim()));
  }
  return bundle;
}

}  // namespace

std::string ModelBundle::SerializeToString() const {
  MAGNETO_CHECK(wire_version == kBundleWireV2 ||
                wire_version == kBundleWireV3);
  BinaryWriter payload;
  pipeline.Serialize(&payload);
  backbone.Serialize(&payload);
  classifier.Serialize(&payload);
  registry.Serialize(&payload);
  if (wire_version == kBundleWireV3) {
    support.SerializeQuantized(&payload);
  } else {
    support.Serialize(&payload);
  }
  const std::string& body = payload.buffer();

  BinaryWriter out;
  out.WriteBytes(kMagic, sizeof(kMagic));
  out.WriteU32(wire_version);
  out.WriteU64(body.size());
  out.WriteBytes(body.data(), body.size());
  // The CRC protects everything after the magic — version, length, body.
  out.WriteU32(Crc32(out.buffer().data() + sizeof(kMagic),
                     out.size() - sizeof(kMagic)));
  return out.TakeBuffer();
}

Result<ModelBundle> ModelBundle::FromString(const std::string& bytes) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return Status::Corruption("bundle too small");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad bundle magic");
  }
  BinaryReader header(bytes.data() + sizeof(kMagic),
                      bytes.size() - sizeof(kMagic));
  MAGNETO_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  MAGNETO_ASSIGN_OR_RETURN(uint64_t body_size, header.ReadU64());

  // The trailing CRC is anchored to the end of the buffer, not to the
  // (untrusted) length field, so it can be verified before anything else in
  // the header is believed. Corruption anywhere — version and length fields
  // included — therefore reports as a checksum mismatch, and the version /
  // length errors below only fire for genuinely well-formed inputs.
  BinaryReader crc_reader(bytes.data() + bytes.size() - kFooterBytes,
                          kFooterBytes);
  MAGNETO_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.ReadU32());
  if (Crc32(bytes.data() + sizeof(kMagic),
            bytes.size() - sizeof(kMagic) - kFooterBytes) != stored_crc) {
    return Status::Corruption("bundle checksum mismatch");
  }
  if (version != kBundleWireV2 && version != kBundleWireV3) {
    return Status::Corruption("unsupported bundle version: " +
                              std::to_string(version));
  }
  if (body_size != bytes.size() - kHeaderBytes - kFooterBytes) {
    return Status::Corruption("truncated bundle body");
  }
  BinaryReader body_reader(bytes.data() + kHeaderBytes, body_size);
  return ParseBody(&body_reader, version);
}

Status ModelBundle::SaveToFile(const std::string& path) const {
  // Atomic replacement: a crash mid-save must never brick the device by
  // destroying the only copy of the deployed bundle.
  return WriteFileAtomic(path, SerializeToString());
}

Result<ModelBundle> ModelBundle::LoadFromFile(const std::string& path) {
  MAGNETO_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return FromString(bytes);
}

Result<ModelBundle> ModelBundle::LoadFromFileWithFallback(
    const std::string& path, const std::string& fallback_path,
    bool* used_fallback) {
  if (used_fallback != nullptr) *used_fallback = false;
  Result<ModelBundle> primary = LoadFromFile(path);
  if (primary.ok()) return primary;
  Result<ModelBundle> fallback = LoadFromFile(fallback_path);
  if (!fallback.ok()) {
    // Surface the primary failure; the fallback being absent is expected
    // before the first checkpoint rotation.
    return Status(primary.status().code(),
                  primary.status().message() + " (fallback " + fallback_path +
                      ": " + fallback.status().message() + ")");
  }
  static obs::Counter* const fallbacks =
      obs::Registry::Global().GetCounter("edge.checkpoint.fallbacks");
  fallbacks->Increment();
  // Falling back to the last-known-good checkpoint means the primary was
  // corrupt — snapshot the recent serving history for the post-mortem.
  obs::FlightRecorder::Global().NoteAnomaly("checkpoint_fallback");
  if (used_fallback != nullptr) *used_fallback = true;
  return fallback;
}

EdgeModel ModelBundle::ToEdgeModel() && {
  return EdgeModel(std::move(pipeline), std::move(backbone),
                   std::move(classifier), std::move(registry));
}

}  // namespace magneto::core
