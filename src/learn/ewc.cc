#include "learn/ewc.h"

#include "learn/pair_sampler.h"
#include "nn/loss.h"

namespace magneto::learn {

Result<EwcRegularizer> EwcRegularizer::Estimate(
    nn::Sequential* net, const sensors::FeatureDataset& old_data,
    const Options& options) {
  if (net == nullptr) return Status::InvalidArgument("net must not be null");
  if (old_data.empty()) {
    return Status::InvalidArgument("old-task data is empty");
  }
  if (options.batches == 0 || options.batch_size == 0) {
    return Status::InvalidArgument("batches and batch_size must be > 0");
  }

  EwcRegularizer ewc;
  std::vector<Matrix*> params = net->Params();
  std::vector<Matrix*> grads = net->Grads();
  ewc.anchor_.reserve(params.size());
  ewc.fisher_.reserve(params.size());
  for (Matrix* p : params) {
    ewc.anchor_.push_back(*p);
    ewc.fisher_.emplace_back(p->rows(), p->cols());
  }

  // Empirical Fisher: mean of squared *per-sample* gradients. Squaring a
  // batch-aggregated gradient instead couples the estimate to batch_size
  // (the cross-sample terms of (sum_i g_i)^2 scale with the batch), which
  // silently rescaled the effective ewc_weight whenever the batch size
  // changed — so each pair gets its own forward/backward here.
  PairSampler sampler(old_data, options.seed);
  size_t total_pairs = 0;
  std::vector<uint8_t> same_one(1);
  nn::ForwardWorkspace ws;
  for (size_t b = 0; b < options.batches; ++b) {
    PairBatch batch = sampler.Sample(options.batch_size);
    for (size_t pair = 0; pair < batch.size(); ++pair) {
      net->ZeroGrad();
      Matrix stacked =
          VStack(batch.a.RowSlice(pair, pair + 1),
                 batch.b.RowSlice(pair, pair + 1));
      const Matrix& emb = net->Forward(stacked, &ws, /*record=*/true);
      same_one[0] = batch.same[pair];
      nn::PairLossResult loss =
          nn::ContrastiveLoss(emb.RowSlice(0, 1), emb.RowSlice(1, 2),
                              same_one, options.margin);
      net->Backward(VStack(loss.grad_a, loss.grad_b), &ws);
      for (size_t i = 0; i < grads.size(); ++i) {
        const Matrix& g = *grads[i];
        Matrix& f = ewc.fisher_[i];
        for (size_t j = 0; j < g.size(); ++j) {
          f.data()[j] += g.data()[j] * g.data()[j];
        }
      }
      ++total_pairs;
    }
  }
  net->ZeroGrad();
  const float inv_pairs = 1.0f / static_cast<float>(total_pairs);
  for (Matrix& f : ewc.fisher_) f.Scale(inv_pairs);
  return ewc;
}

void EwcRegularizer::AccumulatePenaltyGradient(nn::Sequential* net,
                                               double lambda) const {
  std::vector<Matrix*> params = net->Params();
  std::vector<Matrix*> grads = net->Grads();
  MAGNETO_CHECK(params.size() == fisher_.size());
  const float l = static_cast<float>(lambda);
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& p = *params[i];
    const Matrix& f = fisher_[i];
    const Matrix& a = anchor_[i];
    Matrix& g = *grads[i];
    MAGNETO_CHECK(p.SameShape(f));
    for (size_t j = 0; j < p.size(); ++j) {
      g.data()[j] += l * f.data()[j] * (p.data()[j] - a.data()[j]);
    }
  }
}

double EwcRegularizer::Penalty(nn::Sequential* net, double lambda) const {
  std::vector<Matrix*> params = net->Params();
  MAGNETO_CHECK(params.size() == fisher_.size());
  double penalty = 0.0;
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& p = *params[i];
    const Matrix& f = fisher_[i];
    const Matrix& a = anchor_[i];
    for (size_t j = 0; j < p.size(); ++j) {
      const double d = p.data()[j] - a.data()[j];
      penalty += f.data()[j] * d * d;
    }
  }
  return 0.5 * lambda * penalty;
}

size_t EwcRegularizer::num_parameters() const {
  size_t n = 0;
  for (const Matrix& f : fisher_) n += f.size();
  return n;
}

}  // namespace magneto::learn
