#ifndef MAGNETO_SENSORS_SIGNAL_MODEL_H_
#define MAGNETO_SENSORS_SIGNAL_MODEL_H_

#include <array>
#include <map>
#include <vector>

#include "common/random.h"
#include "sensors/activity.h"
#include "sensors/sensor_types.h"

namespace magneto::sensors {

/// One sinusoidal component of a channel's motion signature.
struct Harmonic {
  double amplitude = 0.0;
  double frequency_hz = 0.0;
  double phase = 0.0;  ///< radians
};

/// Generative model of a single sensor channel under one activity.
///
/// A channel sample at time t is:
///   baseline + sum_i harmonics_i + N(0, noise_sigma) + drift(t) + burst(t)
/// where drift is a Gaussian random walk (step std `drift_sigma` per sample)
/// and bursts are short rectangular-envelope shocks occurring as a Poisson
/// process — they model footfalls, road bumps, gesture strokes.
struct ChannelModel {
  double baseline = 0.0;
  std::vector<Harmonic> harmonics;
  double noise_sigma = 0.01;
  double drift_sigma = 0.0;
  double burst_rate_hz = 0.0;   ///< expected bursts per second
  double burst_amplitude = 0.0;
  double burst_duration_s = 0.05;
};

/// Generative model of all 22 channels under one activity.
///
/// This is the synthetic stand-in for the paper's proprietary sensor corpus:
/// each base activity gets a distinct multi-channel signature (frequency
/// bands, amplitudes, environment-sensor baselines) so that the downstream
/// 80-feature representation is class-separable — the property the paper's
/// learning pipeline depends on.
struct SignalModel {
  std::array<ChannelModel, kNumChannels> channels;

  ChannelModel& channel(Channel c) {
    return channels[static_cast<size_t>(c)];
  }
  const ChannelModel& channel(Channel c) const {
    return channels[static_cast<size_t>(c)];
  }
};

/// Library of generative models keyed by activity id.
using ActivityLibrary = std::map<ActivityId, SignalModel>;

/// Base library plus Cycle (pedalling cadence, moderate speed), Stairs Up
/// (walk-like gait with a falling barometer), and Sit (still-like with a
/// tilted gravity vector) — 8 classes for scaling experiments.
ActivityLibrary ExtendedActivityLibrary();

/// Models for the five base activities (Drive, E-scooter, Run, Still, Walk),
/// with signatures loosely matched to their physical characteristics:
/// gait harmonics near 2 Hz (Walk) / 2.8 Hz (Run), engine/road vibration for
/// Drive, high-frequency deck vibration for E-scooter, near-flat Still.
ActivityLibrary DefaultActivityLibrary();

/// A randomly parameterised short-gesture model (e.g. "Gesture Hi", §4.2.2):
/// a distinctive mid-frequency oscillation on the wrist-motion channels.
/// Different seeds give different, mutually distinguishable gestures.
SignalModel MakeGestureModel(uint64_t seed);

/// Large-vocabulary mode: hundreds of procedurally generated activity
/// classes for the many-class scaling experiments (ids `first_id`,
/// `first_id + 1`, ...). Each class gets its own multi-harmonic motion
/// signature plus environment-baseline offsets.
struct LargeVocabularyOptions {
  size_t num_classes = 100;
  /// Inter-class overlap knob in [0, 1]: every class's parameters are
  /// interpolated toward one shared signature drawn from `seed`. 0 keeps
  /// classes maximally distinct; 1 collapses all of them onto the shared
  /// signature. Raising it squeezes the classes together in feature space,
  /// which is what actually stresses classification accuracy.
  double overlap = 0.25;
  uint64_t seed = 1;
  ActivityId first_id = 1000;
};

/// Builds the procedural library. Class `i`'s model depends only on
/// (`seed`, `overlap`, `first_id + i`) — never on `num_classes` — so
/// growing the vocabulary leaves existing classes bit-identical.
ActivityLibrary LargeVocabularyLibrary(const LargeVocabularyOptions& options);

}  // namespace magneto::sensors

#endif  // MAGNETO_SENSORS_SIGNAL_MODEL_H_
