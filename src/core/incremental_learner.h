#ifndef MAGNETO_CORE_INCREMENTAL_LEARNER_H_
#define MAGNETO_CORE_INCREMENTAL_LEARNER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/edge_model.h"
#include "core/support_set.h"
#include "core/update_transaction.h"
#include "learn/siamese_trainer.h"
#include "sensors/recording.h"

namespace magneto::core {

/// The steps of one incremental update (§3.3), in execution order. Step
/// boundaries of the update transaction; used by the failure-injection hook.
enum class UpdateStep : uint8_t {
  kPreprocess = 0,  ///< (1) featurize the capture with the frozen pipeline
  kTrain = 1,       ///< (2)+(3) distillation teacher + joint retraining
  kSupportSet = 2,  ///< (4) fold/replace exemplars in the support set
  kPrototypes = 3,  ///< (5) rebuild every NCM prototype
};

/// Hyperparameters of an on-device update.
struct IncrementalOptions {
  /// Edge retraining config. `distill_weight` > 0 activates the paper's
  /// anti-forgetting term; set to 0 to reproduce the catastrophic-forgetting
  /// baseline (ablated in bench_incremental).
  learn::TrainOptions train = [] {
    learn::TrainOptions t;
    t.epochs = 15;
    t.batch_size = 32;
    t.learning_rate = 5e-4;
    t.distill_weight = 1.0;
    return t;
  }();

  /// Weight of the EWC penalty against the pre-update parameters (0 =
  /// disabled). Ablated in bench_incremental as the regularisation-based
  /// alternative to the paper's rehearsal + distillation.
  double ewc_weight = 0.0;

  /// If true (the paper's recipe, §3.3 step 3), the retraining set is the
  /// support set plus the fresh windows. If false, training sees only the
  /// fresh windows — naive fine-tuning, the catastrophic-forgetting baseline
  /// ablated in bench_incremental.
  bool rehearse_support = true;

  uint64_t seed = 99;

  /// Test-only failure injection: invoked after each update step has run
  /// against the *staged* transaction state; returning an error makes the
  /// step fail as if the step itself had errored. Production leaves this
  /// unset. Used to prove the all-or-nothing guarantee at every boundary.
  std::function<Status(UpdateStep)> failure_hook;
};

/// Outcome of one on-device update.
struct UpdateReport {
  sensors::ActivityId activity = -1;
  size_t new_windows = 0;       ///< windows extracted from the recordings
  learn::TrainReport train;
  size_t support_bytes = 0;     ///< support-set payload after the update
};

/// Definition 2 of the paper, executed entirely on the edge device:
/// enriches the model with the user's personal data, either by learning a
/// brand-new activity or by re-calibrating an existing one, without
/// forgetting what the cloud model knew.
///
/// The update recipe (§3.3):
///   1. preprocess the user's fresh recording into feature windows,
///   2. freeze a copy of the current backbone as the distillation teacher,
///   3. retrain on {old support set} U {new windows} with the joint
///      contrastive + distillation objective,
///   4. fold the new windows into the support set (herding),
///   5. recompute all NCM prototypes through the updated backbone.
///
/// Every update is transactional: steps (1)-(5) run against an
/// `UpdateTransaction`'s staged copies and commit with a single swap only
/// when all of them succeed. An error at *any* step — including a failed
/// registration of the new name — leaves the model, support set,
/// prototypes and registry byte-identical to before the call, so a failed
/// capture is always safely retryable.
///
/// Both calls return FailedPrecondition, before touching anything, when the
/// backbone holds an int8 layer (`CheckTrainable`).
class IncrementalLearner {
 public:
  explicit IncrementalLearner(IncrementalOptions options)
      : options_(options) {}

  const IncrementalOptions& options() const { return options_; }

  /// Learns a new activity named `name` from the user's recordings. Registers
  /// the name in the model's registry and returns the update report.
  Result<UpdateReport> LearnNewActivity(
      EdgeModel* model, SupportSet* support, const std::string& name,
      const std::vector<sensors::Recording>& recordings) const;

  /// Re-calibrates the existing activity `id` to the user's personal style:
  /// identical to re-training, except the activity's support data is
  /// *replaced* by the newly acquired data (§3.3, final paragraph).
  Result<UpdateReport> Calibrate(
      EdgeModel* model, SupportSet* support, sensors::ActivityId id,
      const std::vector<sensors::Recording>& recordings) const;

 private:
  /// Runs steps (1)-(5) against the transaction's staged state and commits
  /// on success. `pipeline` and `teacher` belong to the live (read-only
  /// during the update) model.
  Result<UpdateReport> Update(
      UpdateTransaction* tx, const preprocess::Pipeline& pipeline,
      nn::Sequential* teacher, sensors::ActivityId id,
      const std::vector<sensors::Recording>& recordings,
      bool is_new_class) const;

  IncrementalOptions options_;
};

/// FailedPrecondition if `backbone` holds an int8 layer: such layers are
/// inference-only (no backward pass), so the model cannot learn on device.
Status CheckTrainable(const nn::Sequential& backbone);

}  // namespace magneto::core

#endif  // MAGNETO_CORE_INCREMENTAL_LEARNER_H_
