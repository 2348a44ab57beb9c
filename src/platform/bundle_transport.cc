#include "platform/bundle_transport.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/serial.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace magneto::platform {

namespace {

constexpr char kChunkMagic[4] = {'M', 'C', 'N', 'K'};

struct TransportMetrics {
  obs::Counter* chunks = obs::Registry::Global().GetCounter("net.chunks");
  obs::Counter* retries = obs::Registry::Global().GetCounter("net.retries");
  obs::Counter* deliveries =
      obs::Registry::Global().GetCounter("net.transport.deliveries");
  obs::Counter* failures =
      obs::Registry::Global().GetCounter("net.transport.failures");
  obs::Counter* corrupt_chunks =
      obs::Registry::Global().GetCounter("net.transport.corrupt_chunks");
  /// Attempts needed per delivered chunk (1 = clean).
  obs::Histogram* chunk_attempts = obs::Registry::Global().GetHistogram(
      "net.chunk_attempts", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32});
  /// Simulated end-to-end delivery latency per bundle, in milliseconds.
  obs::Histogram* delivery_ms = obs::Registry::Global().GetHistogram(
      "net.delivery_ms", obs::LatencyBucketsMs());
};

TransportMetrics& Metrics() {
  static TransportMetrics* metrics = new TransportMetrics;
  return *metrics;
}

}  // namespace

std::string EncodeChunkFrame(uint32_t index, uint32_t total_chunks,
                             uint64_t total_payload_bytes,
                             const std::string& chunk_payload) {
  BinaryWriter frame;
  frame.WriteBytes(kChunkMagic, sizeof(kChunkMagic));
  frame.WriteU32(index);
  frame.WriteU32(total_chunks);
  frame.WriteU64(total_payload_bytes);
  frame.WriteU64(chunk_payload.size());
  frame.WriteBytes(chunk_payload.data(), chunk_payload.size());
  frame.WriteU32(Crc32(chunk_payload.data(), chunk_payload.size()));
  return frame.TakeBuffer();
}

Result<std::string> DecodeChunkFrame(const std::string& frame,
                                     uint32_t expected_index,
                                     uint32_t expected_total,
                                     uint64_t expected_payload_bytes) {
  BinaryReader reader(frame);
  if (frame.size() < sizeof(kChunkMagic)) {
    return Status::Corruption("chunk frame too small");
  }
  if (std::memcmp(frame.data(), kChunkMagic, sizeof(kChunkMagic)) != 0) {
    return Status::Corruption("bad chunk magic");
  }
  BinaryReader header(frame.data() + sizeof(kChunkMagic),
                      frame.size() - sizeof(kChunkMagic));
  MAGNETO_ASSIGN_OR_RETURN(uint32_t index, header.ReadU32());
  MAGNETO_ASSIGN_OR_RETURN(uint32_t total, header.ReadU32());
  MAGNETO_ASSIGN_OR_RETURN(uint64_t total_payload, header.ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(uint64_t chunk_len, header.ReadU64());
  if (index != expected_index || total != expected_total ||
      total_payload != expected_payload_bytes) {
    return Status::Corruption("chunk header mismatch");
  }
  // Subtraction form: `chunk_len` is untrusted and must not be added to
  // anything that could wrap.
  if (header.remaining() < sizeof(uint32_t) ||
      chunk_len != header.remaining() - sizeof(uint32_t)) {
    return Status::Corruption("chunk length mismatch");
  }
  const char* payload = frame.data() + (frame.size() - header.remaining());
  BinaryReader crc_reader(payload + chunk_len, sizeof(uint32_t));
  MAGNETO_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.ReadU32());
  if (Crc32(payload, chunk_len) != stored_crc) {
    return Status::Corruption("chunk checksum mismatch");
  }
  return std::string(payload, chunk_len);
}

BundleTransport::BundleTransport(NetworkLink* link, TransportOptions options)
    : link_(link), options_(options), jitter_rng_(options.jitter_seed) {
  MAGNETO_CHECK(link != nullptr);
  MAGNETO_CHECK(options.chunk_bytes > 0);
  MAGNETO_CHECK(options.max_attempts_per_chunk > 0);
}

double BundleTransport::BackoffSeconds(size_t attempt) {
  double wait = options_.backoff_initial_s;
  for (size_t i = 1; i < attempt; ++i) {
    wait *= options_.backoff_multiplier;
    if (wait >= options_.backoff_max_s) break;
  }
  wait = std::min(wait, options_.backoff_max_s);
  return wait * (1.0 + jitter_rng_.Uniform(0.0, options_.jitter_fraction));
}

/// Flow-event name linking one delivery's provision -> chunk/retry -> commit
/// chain. The id comes from the same monotonic space as serving requests,
/// so a delivery and a window can never alias in the same trace.
constexpr const char* kDeliveryFlow = "net.delivery";

Result<std::string> BundleTransport::Deliver(Direction direction,
                                             PayloadKind kind,
                                             const std::string& payload) {
  obs::TraceSpan span("BundleTransport::Deliver");
  const uint64_t flow_id = obs::NextRequestId();
  obs::TraceFlowBegin(kDeliveryFlow, flow_id);
  report_ = TransportReport{};
  const uint32_t total_chunks = static_cast<uint32_t>(
      (payload.size() + options_.chunk_bytes - 1) / options_.chunk_bytes);
  report_.payload_bytes = payload.size();
  report_.chunk_attempts.assign(total_chunks, 0);

  std::string received;
  received.reserve(payload.size());
  // Resume-from-last-good-chunk is structural: `received` only ever grows by
  // validated chunks, and a failed attempt re-sends the current chunk only.
  for (uint32_t index = 0; index < total_chunks; ++index) {
    obs::TraceSpan chunk_span("BundleTransport::Chunk");
    obs::TraceFlowStep(kDeliveryFlow, flow_id);
    const size_t begin = static_cast<size_t>(index) * options_.chunk_bytes;
    const std::string chunk = payload.substr(
        begin, std::min(options_.chunk_bytes, payload.size() - begin));
    const std::string frame =
        EncodeChunkFrame(index, total_chunks, payload.size(), chunk);

    bool chunk_delivered = false;
    for (size_t attempt = 1; attempt <= options_.max_attempts_per_chunk;
         ++attempt) {
      ++report_.attempts;
      ++report_.chunk_attempts[index];
      report_.wire_bytes += frame.size();
      if (attempt > 1) {
        ++report_.retries;
        Metrics().retries->Increment();
        const double wait = BackoffSeconds(attempt - 1);
        report_.backoff_seconds += wait;
        report_.seconds += wait;
      }
      // Chunk 0 and every retry (re-)establish the stream (pay latency);
      // healthy back-to-back chunks pay serialization only.
      const bool pay_latency = index == 0 || attempt > 1;
      Delivery delivery = link_->SendPayload(direction, kind, frame,
                                             pay_latency);
      report_.seconds += delivery.seconds;
      if (!delivery.delivered) continue;
      auto decoded = DecodeChunkFrame(delivery.payload, index, total_chunks,
                                      payload.size());
      if (!decoded.ok()) {
        Metrics().corrupt_chunks->Increment();
        continue;
      }
      received.append(decoded.value());
      Metrics().chunks->Increment();
      Metrics().chunk_attempts->Record(
          static_cast<double>(report_.chunk_attempts[index]));
      chunk_delivered = true;
      ++report_.chunks;
      break;
    }
    if (!chunk_delivered) {
      Metrics().failures->Increment();
      // The flow ends on failure too: a dangling `s` with no `f` would make
      // the exported trace fail validation (tools/validate_trace.py).
      obs::TraceFlowEnd(kDeliveryFlow, flow_id);
      return Status::ResourceExhausted(
          "bundle delivery failed: chunk " + std::to_string(index) + "/" +
          std::to_string(total_chunks) + " exceeded " +
          std::to_string(options_.max_attempts_per_chunk) + " attempts");
    }
  }

  // Belt and braces: the per-chunk CRCs already guarantee integrity, but the
  // whole-payload check makes a clean return synonymous with byte-identical
  // delivery.
  if (received.size() != payload.size() ||
      Crc32(received.data(), received.size()) !=
          Crc32(payload.data(), payload.size())) {
    Metrics().failures->Increment();
    obs::TraceFlowEnd(kDeliveryFlow, flow_id);
    return Status::Corruption("reassembled bundle does not match source");
  }
  report_.delivered = true;
  Metrics().deliveries->Increment();
  Metrics().delivery_ms->Record(report_.seconds * 1e3);
  obs::TraceFlowEnd(kDeliveryFlow, flow_id);
  return received;
}

}  // namespace magneto::platform
