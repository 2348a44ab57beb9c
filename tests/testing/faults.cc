#include "testing/faults.h"

#include <algorithm>
#include <cmath>

namespace magneto::testing {

sensors::Recording InjectFaults(const sensors::Recording& recording,
                                const std::vector<FaultSpec>& faults,
                                Rng* rng) {
  sensors::Recording out = recording;
  const double rate = recording.sample_rate_hz;
  for (const FaultSpec& fault : faults) {
    const size_t ch = static_cast<size_t>(fault.channel);
    if (ch >= out.num_channels()) continue;
    const size_t start = static_cast<size_t>(
        std::max(0.0, fault.start_s) * rate);
    const size_t end = std::min(
        out.num_samples(),
        static_cast<size_t>((fault.start_s + fault.duration_s) * rate));
    if (start >= end) continue;

    switch (fault.kind) {
      case FaultKind::kDropout:
        for (size_t i = start; i < end; ++i) out.samples.At(i, ch) = 0.0f;
        break;
      case FaultKind::kFreeze: {
        const float frozen =
            start > 0 ? out.samples.At(start - 1, ch) : out.samples.At(0, ch);
        for (size_t i = start; i < end; ++i) out.samples.At(i, ch) = frozen;
        break;
      }
      case FaultKind::kSaturate: {
        const float clip = static_cast<float>(fault.magnitude);
        for (size_t i = start; i < end; ++i) {
          out.samples.At(i, ch) =
              out.samples.At(i, ch) >= 0.0f ? clip : -clip;
        }
        break;
      }
      case FaultKind::kSpikes: {
        MAGNETO_CHECK(rng != nullptr);
        for (size_t i = start; i < end; ++i) {
          if (rng->Bernoulli(0.1)) {
            out.samples.At(i, ch) = static_cast<float>(
                (rng->Bernoulli(0.5) ? 1.0 : -1.0) * fault.magnitude);
          }
        }
        break;
      }
    }
  }
  return out;
}

std::vector<FaultSpec> RandomFaults(size_t count, double duration_s,
                                    Rng* rng) {
  MAGNETO_CHECK(rng != nullptr);
  std::vector<FaultSpec> faults;
  faults.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    FaultSpec fault;
    fault.channel =
        static_cast<sensors::Channel>(rng->Index(sensors::kNumChannels));
    fault.kind = static_cast<FaultKind>(rng->Index(4));
    fault.duration_s = rng->Uniform(0.2, duration_s / 2.0);
    fault.start_s = rng->Uniform(0.0, duration_s - fault.duration_s);
    fault.magnitude = rng->Uniform(10.0, 100.0);
    faults.push_back(fault);
  }
  return faults;
}

}  // namespace magneto::testing
