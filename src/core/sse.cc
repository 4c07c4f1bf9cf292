#include "core/sse.h"

#include <cmath>

#include "common/stopwatch.h"
#include "data/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/ms_loss.h"

namespace scis {

namespace {

// Cached handles; updates are relaxed atomics (see obs/metrics.h).
struct SseMetrics {
  obs::Counter* probes;       // candidate sizes probed
  obs::Counter* model_evals;  // parameter-pair distance evaluations
  obs::Gauge* candidate_n;    // n probed most recently
  obs::Gauge* confidence;     // P(D <= eps) from the last full count
  obs::Gauge* n_star;         // final binary-search answer

  static const SseMetrics& Get() {
    static const SseMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return SseMetrics{
          r.GetCounter("sse.probes"), r.GetCounter("sse.model_evals"),
          r.GetGauge("sse.candidate_n"), r.GetGauge("sse.confidence"),
          r.GetGauge("sse.n_star"),
      };
    }();
    return m;
  }
};

// The search's test on a pair count: the empirical P(D ≤ ε) = pass/k
// reaches the Prop.-2 threshold.
bool Accepts(int pass, int k, double threshold) {
  return static_cast<double>(pass) / static_cast<double>(k) >= threshold;
}

}  // namespace

Status ValidateSseOptions(const SseOptions& opts) {
  if (!(opts.epsilon > 0.0)) {
    return Status::InvalidArgument("SseOptions.epsilon must be > 0");
  }
  if (!(opts.alpha > 0.0 && opts.alpha < 1.0)) {
    return Status::InvalidArgument("SseOptions.alpha must be in (0, 1)");
  }
  if (!(opts.beta > 0.0 && opts.beta < 1.0)) {
    return Status::InvalidArgument("SseOptions.beta must be in (0, 1)");
  }
  if (opts.beta > opts.alpha) {
    return Status::InvalidArgument(
        "SseOptions.beta must not exceed alpha (Prop. 2 threshold)");
  }
  if (opts.k < 1) {
    return Status::InvalidArgument("SseOptions.k must be >= 1");
  }
  if (!(opts.lambda > 0.0)) {
    return Status::InvalidArgument("SseOptions.lambda must be > 0");
  }
  if (!(opts.eta_scale > 0.0)) {
    return Status::InvalidArgument("SseOptions.eta_scale must be > 0");
  }
  if (opts.curvature_batches < 1) {
    return Status::InvalidArgument(
        "SseOptions.curvature_batches must be >= 1");
  }
  if (opts.curvature_batch_size < 2) {
    return Status::InvalidArgument(
        "SseOptions.curvature_batch_size must be >= 2 rows");
  }
  return Status::OK();
}

double SseZeta(double lambda, size_t d) {
  SCIS_CHECK_GT(lambda, 0.0);
  const double half_d = static_cast<double>(d / 2);
  return std::exp(6.0 / lambda) *
         std::pow(1.0 + 1.0 / std::pow(lambda, half_d), 2.0);
}

double SseThreshold(double alpha, double beta, int k) {
  SCIS_CHECK(beta > 0.0 && beta <= alpha && alpha <= 1.0);
  SCIS_CHECK_GT(k, 0);
  const double t = (1.0 - alpha) / (1.0 - beta) +
                   std::sqrt(-std::log(beta) / (2.0 * k));
  // The §VI constants (k=20, β=0.01) push the printed bound above 1; clamp
  // to "all k samples must pass" (see EXPERIMENTS.md).
  return std::min(t, 1.0);
}

SseEstimator::SseEstimator(SseOptions opts) : opts_(opts), rng_(opts.seed) {}

Status SseEstimator::Prepare(GenerativeImputer& model,
                             const Dataset& curvature_data) {
  SCIS_TRACE_SPAN("sse.prepare");
  if (Status st = ValidateSseOptions(opts_); !st.ok()) return st;
  ParamStore& store = model.generator_params();
  theta0_ = store.ToFlat();
  const size_t p = theta0_.size();
  if (p == 0) return Status::InvalidArgument("model has no parameters");

  // Hutchinson estimate of diag(Jᵀ J) for the masked reconstruction
  // Jacobian J at θ0 (the paper's Gauss–Newton H, diagonal): for random
  // ±1 cell vectors v, E[(Jᵀ(v ⊙ m))_j²] = Σ_cells m·J².  Normalized per
  // probed row so H matches Theorem 1's per-sample convention.
  h_diag_.assign(p, 0.0);
  const size_t n = curvature_data.num_rows();
  const size_t bs = std::min(opts_.curvature_batch_size, n);
  if (bs < 2) return Status::InvalidArgument("curvature data too small");
  size_t probed_rows = 0;
  for (int b = 0; b < opts_.curvature_batches; ++b) {
    std::vector<size_t> idx = rng_.SampleWithoutReplacement(n, bs);
    Matrix x = curvature_data.values().GatherRows(idx);
    Matrix m = curvature_data.mask().GatherRows(idx);
    // Rademacher probe restricted to observed cells (the T(m_i) factor).
    Matrix v(bs, x.cols());
    for (size_t k = 0; k < v.size(); ++k) {
      v.data()[k] = m.data()[k] * (rng_.Bernoulli(0.5) ? 1.0 : -1.0);
    }
    Tape tape;
    Var xbar = model.ReconstructOnTape(tape, x, m, /*train=*/false);
    Var probe = Sum(Mul(xbar, tape.Constant(std::move(v))));
    tape.Backward(probe);
    std::vector<Matrix> grads = store.CollectGrads();
    // Flatten the probe gradient g = Jᵀ(v ⊙ m).
    std::vector<double> flat;
    flat.reserve(p);
    for (const Matrix& g : grads) {
      flat.insert(flat.end(), g.data(), g.data() + g.size());
    }
    for (size_t i = 0; i < p; ++i) h_diag_[i] += flat[i] * flat[i];
    probed_rows += bs;
  }
  double mean_h = 0.0;
  for (double& h : h_diag_) {
    h /= static_cast<double>(probed_rows);
    mean_h += h;
  }
  mean_h /= static_cast<double>(p);
  // Ridge floor so dead parameters do not explode the sampled variance.
  const double floor = std::max(mean_h * 1e-3, 1e-12);
  for (double& h : h_diag_) h = std::max(h, floor);

  // Common random numbers for the k parameter pairs.
  z1_.assign(opts_.k, std::vector<double>(p));
  z2_.assign(opts_.k, std::vector<double>(p));
  for (int i = 0; i < opts_.k; ++i) {
    for (size_t j = 0; j < p; ++j) {
      z1_[i][j] = rng_.Normal();
      z2_[i][j] = rng_.Normal();
    }
  }
  prepared_ = true;
  return Status::OK();
}

double SseEstimator::OutputDistance(GenerativeImputer& model,
                                    const Dataset& validation,
                                    const std::vector<double>& theta_a,
                                    const std::vector<double>& theta_b) {
  ParamStore& store = model.generator_params();
  store.FromFlat(theta_a);
  const Matrix xa = model.Reconstruct(validation);
  store.FromFlat(theta_b);
  const Matrix xb = model.Reconstruct(validation);
  // Eq. 4: RMS of m ⊙ (x̄_a − x̄_b) over observed cells.
  double acc = 0.0;
  size_t cnt = 0;
  const Matrix& mask = validation.mask();
  for (size_t i = 0; i < xa.rows(); ++i) {
    for (size_t j = 0; j < xa.cols(); ++j) {
      if (mask(i, j) == 1.0) {
        const double diff = xa(i, j) - xb(i, j);
        acc += diff * diff;
        ++cnt;
      }
    }
  }
  return cnt ? std::sqrt(acc / static_cast<double>(cnt)) : 0.0;
}

SseEstimator::PassCount SseEstimator::CountPasses(
    GenerativeImputer& model, const Dataset& validation, size_t n0, size_t n,
    size_t data_size, const double* threshold) {
  SCIS_TRACE_SPAN("sse.probe");
  const SseMetrics& metrics = SseMetrics::Get();
  SCIS_CHECK_MSG(prepared_, "Prepare() must run before ProbabilityAt()");
  SCIS_CHECK(n0 <= n && n <= data_size);
  const size_t p = theta0_.size();
  const double zeta = SseZeta(opts_.lambda, validation.num_cols());
  const double eta_0n =
      opts_.eta_scale * zeta *
      std::max(0.0, 1.0 / static_cast<double>(n0) - 1.0 / static_cast<double>(n));
  const double eta_nN =
      opts_.eta_scale * zeta *
      std::max(0.0, 1.0 / static_cast<double>(n) -
                        1.0 / static_cast<double>(data_size));

  // Unit-η parameter direction: each coordinate scaled by 1/√h, so
  // Cov(x) = diag(H)⁻¹.
  auto direction = [&](const std::vector<double>& z) {
    std::vector<double> x(p);
    for (size_t j = 0; j < p; ++j) x[j] = z[j] / std::sqrt(h_diag_[j]);
    return x;
  };
  std::vector<double> theta_n(p), theta_N(p);
  int pass = 0, evaluated = 0;
  for (int i = 0; i < opts_.k; ++i) {
    // The final count lies in [pass, pass + k − i] and the test is
    // monotone in it, so once both ends agree the rest cannot change it.
    if (threshold != nullptr &&
        (Accepts(pass, opts_.k, *threshold) ||
         !Accepts(pass + opts_.k - i, opts_.k, *threshold))) {
      break;
    }
    const std::vector<double> d1 = direction(z1_[i]);
    const std::vector<double> d2 = direction(z2_[i]);
    for (size_t j = 0; j < p; ++j) {
      theta_n[j] = theta0_[j] + std::sqrt(eta_0n) * d1[j];
      theta_N[j] = theta_n[j] + std::sqrt(eta_nN) * d2[j];
    }
    const double dist = OutputDistance(model, validation, theta_n, theta_N);
    if (dist <= opts_.epsilon) ++pass;
    ++evaluated;
  }
  // Restore θ0.
  model.generator_params().FromFlat(theta0_);
  metrics.probes->Add(1);
  metrics.model_evals->Add(static_cast<uint64_t>(evaluated));
  metrics.candidate_n->Set(static_cast<double>(n));
  return {pass, evaluated == opts_.k};
}

double SseEstimator::Confidence(int pass) const {
  const double prob = static_cast<double>(pass) / static_cast<double>(opts_.k);
  SseMetrics::Get().confidence->Set(prob);
  return prob;
}

double SseEstimator::ProbabilityAt(GenerativeImputer& model,
                                   const Dataset& validation, size_t n0,
                                   size_t n, size_t data_size) {
  return Confidence(
      CountPasses(model, validation, n0, n, data_size, /*threshold=*/nullptr)
          .pass);
}

Result<SseResult> SseEstimator::EstimateMinimumSize(GenerativeImputer& model,
                                                    size_t data_size,
                                                    const Dataset& validation,
                                                    size_t n0) {
  if (Status st = ValidateSseOptions(opts_); !st.ok()) return st;
  if (n0 == 0 || n0 > data_size) {
    return Status::InvalidArgument("need 0 < n0 <= N");
  }
  if (!prepared_) {
    return Status::Internal("Prepare() must be called before estimation");
  }
  SCIS_TRACE_SPAN("sse.search");
  Stopwatch watch;
  SseResult res;
  res.zeta = SseZeta(opts_.lambda, validation.num_cols());
  res.threshold = SseThreshold(opts_.alpha, opts_.beta, opts_.k);

  // P(n) is monotone in n under common random numbers: binary search the
  // smallest satisfying size. A step needs only the decision, so its pair
  // loop stops once the count settles it; n* keeps its full count below.
  // Accepting steps probe strictly decreasing sizes and n* is the last one
  // (or N, never probed), so the last accepting full count is n*'s when its
  // size matches.
  size_t full_n = 0;  // 0: no accepting step has evaluated all k pairs
  int full_pass = 0;
  auto satisfied = [&](size_t n) {
    ++res.search_steps;
    const PassCount c =
        CountPasses(model, validation, n0, n, data_size, &res.threshold);
    const bool ok = Accepts(c.pass, opts_.k, res.threshold);
    if (ok && c.full) {
      full_n = n;
      full_pass = c.pass;
    }
    return ok;
  };
  size_t lo = n0, hi = data_size;
  if (satisfied(lo)) {
    res.n_star = lo;
  } else {
    // Invariant: P(hi) is satisfied (at n=N the pair distance is 0 ≤ ε).
    while (hi - lo > std::max<size_t>(1, data_size / 1024)) {
      const size_t mid = lo + (hi - lo) / 2;
      if (satisfied(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    res.n_star = hi;
  }
  res.probability_at_n_star =
      full_n == res.n_star
          ? Confidence(full_pass)
          : ProbabilityAt(model, validation, n0, res.n_star, data_size);
  res.sse_seconds = watch.ElapsedSeconds();
  SseMetrics::Get().n_star->Set(static_cast<double>(res.n_star));
  return res;
}

}  // namespace scis
