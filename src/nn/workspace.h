#ifndef MAGNETO_NN_WORKSPACE_H_
#define MAGNETO_NN_WORKSPACE_H_

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace magneto::nn {

class Sequential;

/// Per-layer, per-run mutable state. Layers are immutable during `Forward`;
/// what a layer's `Backward` needs beyond the recorded activations lives in
/// the slot the caller hands in. Slots are plain buffers reused across
/// calls, so a run at a stable batch shape never allocates.
struct LayerState {
  /// Backward scratch row (Linear's bias gradient: grad_output's column sums).
  Matrix scratch_row;
};

/// Caller-owned activation storage for `Sequential::Forward`/`Backward` —
/// the run-context half of a session/run-context split. The network holds
/// parameters only and its `Forward` is `const`; every mutable tensor of a
/// pass lives here. One immutable backbone therefore runs on N threads with
/// zero locks, each thread bringing its own workspace.
///
/// Ownership rules:
///  - One workspace per concurrent caller. Sharing a workspace across
///    threads is a data race; sharing it across networks is fine (buffers
///    re-adapt).
///  - References returned by `Sequential::Forward`/`Backward` point into
///    the workspace and stay valid until its next forward/backward.
///  - `Backward` must use the same workspace as the recorded `Forward` it
///    matches.
///
/// Buffers grow to the high-water shape and are then reused: steady-state
/// forwards perform zero heap allocations (see `Matrix::AllocationCount`).
class ForwardWorkspace {
 public:
  ForwardWorkspace() = default;
  ForwardWorkspace(ForwardWorkspace&&) noexcept = default;
  ForwardWorkspace& operator=(ForwardWorkspace&&) noexcept = default;
  ForwardWorkspace(const ForwardWorkspace&) = delete;
  ForwardWorkspace& operator=(const ForwardWorkspace&) = delete;

  /// Releases every held buffer (capacity included). Reuse never requires
  /// this; it exists for memory-pressure housekeeping.
  void Clear() {
    states_.clear();
    acts_.clear();
    io_[0] = Matrix();
    io_[1] = Matrix();
    grad_[0] = Matrix();
    grad_[1] = Matrix();
    recorded_net_ = nullptr;
    recorded_layers_ = 0;
    recorded_ = false;
  }

 private:
  friend class Sequential;

  void PrepareLayers(size_t n) {
    if (states_.size() < n) states_.resize(n);
    if (acts_.size() < n + 1) acts_.resize(n + 1);
  }

  std::vector<LayerState> states_;
  /// Recorded path: acts_[0] is the pass input, acts_[i+1] layer i's output.
  std::vector<Matrix> acts_;
  /// Inference path: layers ping-pong between these two buffers.
  Matrix io_[2];
  /// Backward path: layer input-gradients ping-pong between these two, so
  /// the forward output survives the backward pass.
  Matrix grad_[2];
  /// Which network's activations are recorded here (misuse detection).
  const void* recorded_net_ = nullptr;
  size_t recorded_layers_ = 0;
  bool recorded_ = false;
};

}  // namespace magneto::nn

#endif  // MAGNETO_NN_WORKSPACE_H_
