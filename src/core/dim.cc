#include "core/dim.h"

#include "common/stopwatch.h"
#include "data/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/ms_loss.h"

namespace scis {

namespace {

// The learned critic φ: d -> kCriticHidden -> d (tanh-bounded output),
// updated kCriticSteps times per generator step.
constexpr size_t kCriticHidden = 32;
constexpr int kCriticSteps = 1;

// Cached handles; updates are relaxed atomics (see obs/metrics.h).
struct DimMetrics {
  obs::Counter* epochs;
  obs::Counter* steps;
  obs::Counter* critic_steps;
  obs::Gauge* epoch_loss;
  obs::Gauge* epoch_divergence;
  obs::Histogram* batch_ms;
  obs::Histogram* critic_ms;
  obs::Histogram* gen_step_ms;

  static const DimMetrics& Get() {
    static const DimMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      const std::vector<double> ms_bounds{0.5, 1, 2,  5,   10,
                                          20,  50, 100, 250, 1000};
      return DimMetrics{
          r.GetCounter("dim.epochs"),
          r.GetCounter("dim.steps"),
          r.GetCounter("dim.critic_steps"),
          r.GetGauge("dim.epoch_loss"),
          r.GetGauge("dim.epoch_divergence"),
          r.GetHistogram("dim.batch_ms", ms_bounds),
          r.GetHistogram("dim.critic_ms", ms_bounds),
          r.GetHistogram("dim.gen_step_ms", ms_bounds),
      };
    }();
    return m;
  }
};

}  // namespace

DimTrainer::DimTrainer(DimOptions opts)
    : opts_(opts),
      rng_(opts.seed),
      gen_adam_(opts.learning_rate),
      critic_adam_(opts.learning_rate) {}

void DimTrainer::EnsureCritic(size_t d, Rng& rng) {
  if (!opts_.use_critic || critic_) return;
  // tanh-bounded embeddings keep the ground cost within [0, 4d], so the
  // λ=130 Sinkhorn solves converge in a few iterations.
  critic_ = std::make_unique<Mlp>(
      &critic_store_, "dim.critic",
      std::vector<size_t>{d, kCriticHidden, d}, Activation::kRelu,
      Activation::kTanh, rng);
}

Status DimTrainer::Train(GenerativeImputer& model, const Dataset& data) {
  SCIS_TRACE_SPAN("dim.train");
  const DimMetrics& metrics = DimMetrics::Get();
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("DIM needs at least two rows");
  }
  EnsureCritic(data.num_cols(), rng_);
  const SinkhornOptions sopts = SolverOptions();

  ParamStore& gen_store = model.generator_params();
  MiniBatcher batcher(data.num_rows(), opts_.batch_size, rng_);
  std::vector<size_t> batch;
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    SCIS_TRACE_SPAN("dim.epoch");
    batcher.Reset(rng_);
    double epoch_loss = 0.0, epoch_div = 0.0;
    size_t batches = 0;
    while (batcher.Next(&batch)) {
      SCIS_TRACE_SPAN("dim.batch");
      Stopwatch batch_watch;
      Matrix x = data.values().GatherRows(batch);
      Matrix m = data.mask().GatherRows(batch);
      Matrix xm = Mul(x, m);  // masked data rows (missing already 0)

      // --- critic ascent: maximize the embedded Sinkhorn divergence ---
      if (opts_.use_critic) {
        for (int c = 0; c < kCriticSteps; ++c) {
          SCIS_TRACE_SPAN("dim.critic_step");
          metrics.critic_steps->Add(1);
          Stopwatch critic_watch;
          Tape& tape = critic_tape_;
          Var neg;
          {
            SCIS_TRACE_SPAN("dim.forward");
            Var xbar = model.ReconstructOnTape(tape, x, m, /*train=*/true);
            Var masked_fake = Mul(xbar, tape.ConstantRef(&m));
            Var emb_fake = critic_->Forward(tape, masked_fake);
            Var emb_real = critic_->Forward(tape, tape.ConstantRef(&xm));
            Var div = SinkhornLossBoth(emb_fake, emb_real, sopts);
            // Gradient ascent on the critic = descent on -div.
            neg = MulScalar(div, -1.0);
          }
          {
            SCIS_TRACE_SPAN("dim.backward");
            tape.Backward(neg);
          }
          {
            SCIS_TRACE_SPAN("dim.optimizer");
            critic_store_.CollectGradsInto(&grad_views_);
            critic_adam_.Step(critic_store_, grad_views_);
            gen_store.DropBindings();  // discard generator grads
          }
          tape.Clear();
          metrics.critic_ms->Observe(critic_watch.ElapsedMillis());
        }
      }

      // --- generator descent on the MS-divergence loss (Eq. 3) ---
      {
        Stopwatch gen_watch;
        Tape& tape = gen_tape_;
        Var loss;
        double div_value;
        {
          SCIS_TRACE_SPAN("dim.forward");
          Var xbar = model.ReconstructOnTape(tape, x, m, /*train=*/true);
          if (opts_.use_critic) {
            Var masked_fake = Mul(xbar, tape.ConstantRef(&m));
            Var emb_fake = critic_->Forward(tape, masked_fake);
            Var emb_real = critic_->Forward(tape, tape.ConstantRef(&xm));
            loss = SinkhornLossBoth(emb_fake, emb_real, sopts);
            div_value = loss.value()(0, 0);
          } else {
            loss = MsLoss(xbar, x, m, sopts);
            div_value = loss.value()(0, 0);
          }
          if (opts_.recon_weight > 0.0) {
            Var rec = WeightedMseLoss(xbar, tape.ConstantRef(&x),
                                      tape.ConstantRef(&m));
            loss = Add(loss, MulScalar(rec, opts_.recon_weight));
          }
        }
        {
          SCIS_TRACE_SPAN("dim.backward");
          tape.Backward(loss);
        }
        {
          SCIS_TRACE_SPAN("dim.optimizer");
          gen_store.CollectGradsInto(&grad_views_);
          gen_adam_.Step(gen_store, grad_views_);
          if (opts_.use_critic) critic_store_.DropBindings();
        }
        epoch_loss += loss.value()(0, 0);  // node-owned: read before Clear
        tape.Clear();
        epoch_div += div_value;
        ++batches;
        ++stats_.steps;
        metrics.gen_step_ms->Observe(gen_watch.ElapsedMillis());
      }
      metrics.steps->Add(1);
      metrics.batch_ms->Observe(batch_watch.ElapsedMillis());
    }
    metrics.epochs->Add(1);
    if (batches > 0) {
      stats_.final_loss = epoch_loss / static_cast<double>(batches);
      stats_.final_divergence = epoch_div / static_cast<double>(batches);
      metrics.epoch_loss->Set(stats_.final_loss);
      metrics.epoch_divergence->Set(stats_.final_divergence);
    }
  }
  return Status::OK();
}

SinkhornOptions DimTrainer::SolverOptions() const {
  return {.lambda = opts_.lambda, .max_iters = opts_.sinkhorn_iters,
          .tol = 1e-7};
}

double DimTrainer::EvalLoss(GenerativeImputer& model, const Matrix& x,
                            const Matrix& m) {
  const SinkhornOptions sopts = SolverOptions();
  Tape& tape = eval_tape_;
  Var xbar = model.ReconstructOnTape(tape, x, m, /*train=*/false);
  Var loss = MsLoss(xbar, x, m, sopts);
  const double v = loss.value()(0, 0);
  model.generator_params().DropBindings();
  tape.Clear();
  return v;
}

}  // namespace scis
