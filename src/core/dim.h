// DIM — differentiable imputation modeling (§IV).
//
// Takes any GenerativeImputer and retrains its generator with the
// MS-divergence imputation loss (Eq. 3) by mini-batch gradient descent,
// instead of the model's native JS-divergence adversarial loss. Two critic
// modes (§IV-B):
//   * identity critic (use_critic = false): the generator directly descends
//     L_s = S_m(X̄ ⊙ M, X ⊙ M)/(2n) — the pure Eq.-3 objective;
//   * learned critic (use_critic = true): a feature map φ embeds masked
//     rows; the discriminator ascends the Sinkhorn divergence of the
//     embedded batches while the generator descends it (OT-GAN style,
//     after [19], [41]).
// A small observed-reconstruction MSE anchor (recon_weight) is kept, as in
// GAIN's generator loss; the ablation benches toggle it.
#ifndef SCIS_CORE_DIM_H_
#define SCIS_CORE_DIM_H_

#include <memory>

#include "models/imputer.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "ot/sinkhorn.h"

namespace scis {

struct DimOptions {
  int epochs = 100;
  size_t batch_size = 128;
  double learning_rate = 1e-3;
  double lambda = 130.0;      // MS-divergence λ (§VI default)
  int sinkhorn_iters = 100;
  // Identity critic (false) is the default: the generator directly descends
  // the Eq.-3 loss, which the probe benchmarks showed trains ~50x faster at
  // equal accuracy. The learned critic (OT-GAN style) remains available for
  // the §IV-B adversarial variant and its ablation.
  bool use_critic = false;
  double recon_weight = 1.0;  // observed-MSE anchor weight
  uint64_t seed = 31;
};

// Statistics from a DIM training run.
struct DimStats {
  double final_loss = 0.0;       // generator loss, last epoch average
  double final_divergence = 0.0; // MS-divergence term, last epoch average
  long steps = 0;
};

class DimTrainer {
 public:
  explicit DimTrainer(DimOptions opts = {});

  // Trains `model`'s generator on `data` (normalized, incomplete) with the
  // MS-divergence loss. May be called repeatedly (Algorithm 1 lines 2/5) —
  // optimizer state persists across calls for warm-started retraining.
  Status Train(GenerativeImputer& model, const Dataset& data);

  const DimStats& stats() const { return stats_; }
  const DimOptions& options() const { return opts_; }

  // Evaluates the training loss MsLoss of `model` on a batch (no training).
  // Like MsLoss, the value omits the constant OT_λ^m(X, X)/(2n), so only
  // differences on a fixed batch are meaningful (tests and the testkit's
  // numeric gradient use it that way).
  double EvalLoss(GenerativeImputer& model, const Matrix& x,
                  const Matrix& m);

  // Pool statistics of the persistent step tapes (steady-state training must
  // show zero new misses; see tests/train_fastpath_test.cc).
  const TapePool::Stats& gen_pool_stats() const {
    return gen_tape_.pool_stats();
  }
  const TapePool::Stats& critic_pool_stats() const {
    return critic_tape_.pool_stats();
  }

 private:
  void EnsureCritic(size_t d, Rng& rng);
  // The Sinkhorn options every DIM solve uses (Train and EvalLoss).
  SinkhornOptions SolverOptions() const;

  DimOptions opts_;
  Rng rng_;
  Adam gen_adam_, critic_adam_;
  ParamStore critic_store_;
  std::unique_ptr<Mlp> critic_;
  DimStats stats_;
  // Persistent step tapes: Clear() recycles node storage through the tape
  // pool, so the second and later steps allocate nothing on the tape path.
  Tape gen_tape_, critic_tape_, eval_tape_;
  std::vector<const Matrix*> grad_views_;  // reused per step (no realloc)
};

}  // namespace scis

#endif  // SCIS_CORE_DIM_H_
