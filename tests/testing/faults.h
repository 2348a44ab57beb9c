#ifndef MAGNETO_TESTING_FAULTS_H_
#define MAGNETO_TESTING_FAULTS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "sensors/recording.h"
#include "sensors/sensor_types.h"

namespace magneto::testing {

// Sensor-fault injection for the robustness tests: recordings with
// channels that drop out, freeze, saturate or spike.

/// How a sensor channel misbehaves during a fault interval.
enum class FaultKind : uint8_t {
  kDropout = 0,   ///< channel reads 0 (sensor off / permission revoked)
  kFreeze = 1,    ///< channel repeats its last good value (stuck driver)
  kSaturate = 2,  ///< channel clips at an extreme value (range overflow)
  kSpikes = 3,    ///< channel emits large random impulses (loose contact)
};

/// One injected fault: `channel` misbehaves as `kind` during
/// [start_s, start_s + duration_s).
struct FaultSpec {
  sensors::Channel channel = sensors::Channel::kAccX;
  FaultKind kind = FaultKind::kDropout;
  double start_s = 0.0;
  double duration_s = 1.0;
  /// For kSaturate: the clip value; for kSpikes: impulse amplitude.
  double magnitude = 50.0;
};

/// Returns a copy of `recording` with the faults applied. Real phone sensor
/// stacks misbehave like this routinely; the robustness tests check that the
/// preprocessing pipeline keeps producing finite features and the classifier
/// degrades instead of crashing.
sensors::Recording InjectFaults(const sensors::Recording& recording,
                                const std::vector<FaultSpec>& faults,
                                Rng* rng);

/// Samples `count` random faults spread over a recording of `duration_s`.
std::vector<FaultSpec> RandomFaults(size_t count, double duration_s,
                                    Rng* rng);

}  // namespace magneto::testing

#endif  // MAGNETO_TESTING_FAULTS_H_
