#ifndef MAGNETO_PLATFORM_BUNDLE_TRANSPORT_H_
#define MAGNETO_PLATFORM_BUNDLE_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "platform/network_link.h"

namespace magneto::platform {

/// Tunables of the chunked transfer protocol.
struct TransportOptions {
  size_t chunk_bytes = 4096;  ///< payload bytes per chunk frame

  /// Bounded retries: a chunk that fails this many times in a row aborts the
  /// delivery with kResourceExhausted.
  size_t max_attempts_per_chunk = 16;

  /// Deterministic exponential backoff (simulated seconds) between attempts:
  /// wait = min(initial * multiplier^(attempt-1), max) * (1 + jitter), where
  /// jitter is uniform in [0, jitter_fraction) from `jitter_seed`.
  double backoff_initial_s = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 2.0;
  double jitter_fraction = 0.1;
  uint64_t jitter_seed = 1;
};

/// What one delivery session cost and how it went.
struct TransportReport {
  size_t payload_bytes = 0;  ///< bytes the caller asked to deliver
  size_t wire_bytes = 0;     ///< bytes put on the wire (incl. headers, retries)
  size_t chunks = 0;    ///< chunks validated by the receiver this session
  size_t attempts = 0;  ///< total chunk send attempts
  size_t retries = 0;   ///< attempts beyond the first per chunk
  bool delivered = false;  ///< the whole payload arrived byte-identical

  double seconds = 0.0;          ///< simulated end-to-end delivery latency
  double backoff_seconds = 0.0;  ///< portion of `seconds` spent backing off

  /// Attempts per chunk, indexed from chunk 0 — the resume contract: a
  /// fault on chunk k bumps only `chunk_attempts[k]`; chunks before k are
  /// never re-sent.
  std::vector<size_t> chunk_attempts;

  /// Caller-payload bytes per simulated second of delivery.
  double goodput_bytes_per_s() const {
    return seconds > 0.0 ? static_cast<double>(payload_bytes) / seconds : 0.0;
  }
};

/// Fault-tolerant cloud->edge delivery of a serialized bundle (§3.2's one
/// artifact) over a lossy `NetworkLink`.
///
/// The payload is split into fixed-size chunks, each framed as
///   u32 magic "MCNK" | u32 chunk_index | u32 total_chunks |
///   u64 total_payload_bytes | u64 chunk_payload_bytes | payload |
///   u32 CRC-32(payload)
/// The receiver validates frame structure and per-chunk CRC; any fault
/// (drop, truncation, bit-flip — anywhere in the frame, header included)
/// fails that attempt only. The sender backs off deterministically and
/// re-sends the *same* chunk: delivery resumes from the last good chunk,
/// never from chunk 0. After reassembly the whole payload is CRC-verified
/// against the sender's copy, so a successful `Deliver` is byte-identical.
///
/// Timing model: chunk 0 and every retry pay the link's one-way latency
/// (stream [re-]establishment); back-to-back chunks on a healthy stream pay
/// serialization time only. Acks ride the return path implicitly — no
/// explicit uplink frames, so a downlink delivery stays downlink-only in the
/// privacy ledger.
class BundleTransport {
 public:
  BundleTransport(NetworkLink* link, TransportOptions options);

  /// Delivers `payload` over the link; returns the reassembled, CRC-verified
  /// receiver copy, or kResourceExhausted once a chunk exceeds its retry
  /// budget. `report()` is valid (and partially filled) either way.
  Result<std::string> Deliver(Direction direction, PayloadKind kind,
                              const std::string& payload);

  const TransportReport& report() const { return report_; }
  const TransportOptions& options() const { return options_; }

  /// Backoff before attempt `attempt` (1-based count of failures so far),
  /// jitter included. Exposed for tests and latency budgeting.
  double BackoffSeconds(size_t attempt);

 private:
  NetworkLink* link_;
  TransportOptions options_;
  TransportReport report_;
  Rng jitter_rng_;
};

/// Builds one chunk frame (see the format above).
std::string EncodeChunkFrame(uint32_t index, uint32_t total_chunks,
                             uint64_t total_payload_bytes,
                             const std::string& chunk_payload);

/// Receiver-side validation: parses `frame`, checks indices against what the
/// receiver expects next, and verifies the per-chunk CRC. Returns the chunk
/// payload or kCorruption.
Result<std::string> DecodeChunkFrame(const std::string& frame,
                                     uint32_t expected_index,
                                     uint32_t expected_total,
                                     uint64_t expected_payload_bytes);

}  // namespace magneto::platform

#endif  // MAGNETO_PLATFORM_BUNDLE_TRANSPORT_H_
