#ifndef MAGNETO_SENSORS_SYNTHETIC_GENERATOR_H_
#define MAGNETO_SENSORS_SYNTHETIC_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "sensors/activity.h"
#include "sensors/recording.h"
#include "sensors/signal_model.h"

namespace magneto::sensors {

/// A recording annotated with the activity performed during it.
struct LabeledRecording {
  Recording recording;
  ActivityId label = 0;
};

/// Configuration for the synthetic sensor stream generator.
struct GeneratorOptions {
  double sample_rate_hz = kDefaultSampleRateHz;
  /// Random per-recording phase: two recordings of the same activity do not
  /// start at the same gait position (true of any real capture).
  bool randomize_phase = true;
};

/// Produces synthetic multi-channel sensor streams from `SignalModel`s.
///
/// This is the data substrate of the reproduction: it plays the role of the
/// phone's sensor stack plus the paper's 100 GB collection campaign. All
/// draws go through an explicit seed for reproducibility.
class SyntheticGenerator {
 public:
  SyntheticGenerator(GeneratorOptions options, uint64_t seed)
      : options_(options), rng_(seed) {}

  explicit SyntheticGenerator(uint64_t seed)
      : SyntheticGenerator(GeneratorOptions{}, seed) {}

  /// Generates `duration_s` seconds of signal under `model`.
  Recording Generate(const SignalModel& model, double duration_s);

  /// Generates `count` independent recordings of `duration_s` seconds each.
  std::vector<Recording> GenerateMany(const SignalModel& model, size_t count,
                                      double duration_s);

  /// Generates `per_class` labeled recordings for every activity in `library`.
  std::vector<LabeledRecording> GenerateDataset(const ActivityLibrary& library,
                                                size_t per_class,
                                                double duration_s);

  /// Large-vocabulary mode: builds the procedural library
  /// (`LargeVocabularyLibrary`) and generates `per_class` labeled
  /// recordings for each of its `vocabulary.num_classes` classes — the data
  /// substrate for the many-class enrollment of perfbench's `fleet` workload.
  std::vector<LabeledRecording> GenerateVocabularyDataset(
      const LargeVocabularyOptions& vocabulary, size_t per_class,
      double duration_s);

  const GeneratorOptions& options() const { return options_; }

 private:
  GeneratorOptions options_;
  Rng rng_;
};

}  // namespace magneto::sensors

#endif  // MAGNETO_SENSORS_SYNTHETIC_GENERATOR_H_
