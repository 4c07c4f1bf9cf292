#include "testkit/oracles.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"
#include "tensor/linalg.h"
#include "tensor/matrix_ops.h"

namespace scis::testkit {

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  SCIS_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

Matrix NaiveMaskedCost(const Matrix& a, const Matrix& ma, const Matrix& b,
                       const Matrix& mb) {
  SCIS_CHECK(a.SameShape(ma));
  SCIS_CHECK(b.SameShape(mb));
  SCIS_CHECK_EQ(a.cols(), b.cols());
  Matrix cost(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        const double diff = ma(i, k) * a(i, k) - mb(j, k) * b(j, k);
        acc += diff * diff;
      }
      cost(i, j) = acc;
    }
  }
  return cost;
}

std::vector<std::pair<size_t, double>> NaiveMaskedKnn(
    const Matrix& x, const Matrix& mask, const double* query,
    const double* query_mask, size_t k, size_t exclude) {
  SCIS_CHECK(x.SameShape(mask));
  std::vector<std::pair<size_t, double>> hits;
  for (size_t r = 0; r < x.rows(); ++r) {
    if (r == exclude) continue;
    double acc = 0.0;
    size_t overlap = 0;
    for (size_t j = 0; j < x.cols(); ++j) {
      if (query_mask[j] == 1.0 && mask(r, j) == 1.0) {
        const double diff = query[j] - x(r, j);
        acc += diff * diff;
        ++overlap;
      }
    }
    if (overlap == 0) continue;
    hits.push_back({r, acc / static_cast<double>(overlap)});
  }
  std::sort(hits.begin(), hits.end(),
            [](const std::pair<size_t, double>& a,
               const std::pair<size_t, double>& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

namespace {

double LogSumExp(const std::vector<double>& v) {
  const double hi = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(hi)) return hi;
  double acc = 0.0;
  for (const double x : v) acc += std::exp(x - hi);
  return hi + std::log(acc);
}

}  // namespace

OtOracle SolveEntropicOtOracle(const Matrix& cost, double lambda,
                               int max_iters, double tol) {
  SCIS_CHECK_GT(lambda, 0.0);
  const size_t n = cost.rows(), m = cost.cols();
  SCIS_CHECK(n > 0 && m > 0);
  const double log_a = -std::log(static_cast<double>(n));
  const double log_b = -std::log(static_cast<double>(m));

  // φ/ψ are log-domain scalings: P_ij = exp(φ_i + ψ_j − C_ij/λ).
  std::vector<double> phi(n, 0.0), psi(m, 0.0), buf(std::max(n, m));
  OtOracle out;
  for (int it = 0; it < max_iters; ++it) {
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      buf.resize(m);
      for (size_t j = 0; j < m; ++j) buf[j] = psi[j] - cost(i, j) / lambda;
      const double next = log_a - LogSumExp(buf);
      delta = std::max(delta, std::abs(next - phi[i]));
      phi[i] = next;
    }
    for (size_t j = 0; j < m; ++j) {
      buf.resize(n);
      for (size_t i = 0; i < n; ++i) buf[i] = phi[i] - cost(i, j) / lambda;
      const double next = log_b - LogSumExp(buf);
      delta = std::max(delta, std::abs(next - psi[j]));
      psi[j] = next;
    }
    out.iters = it + 1;
    if (delta < tol) {
      out.converged = true;
      break;
    }
  }

  out.plan = Matrix(n, m);
  double cost_acc = 0.0, entropy_acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double p = std::exp(phi[i] + psi[j] - cost(i, j) / lambda);
      out.plan(i, j) = p;
      cost_acc += p * cost(i, j);
      if (p > 0.0) entropy_acc += p * std::log(p);
    }
  }
  out.transport_cost = cost_acc;
  out.reg_value = cost_acc + lambda * entropy_acc;
  return out;
}

double OracleMsDivergence(const Matrix& xbar, const Matrix& x, const Matrix& m,
                          double lambda) {
  const Matrix cost_ab = NaiveMaskedCost(xbar, m, x, m);
  const Matrix cost_aa = NaiveMaskedCost(xbar, m, xbar, m);
  const Matrix cost_bb = NaiveMaskedCost(x, m, x, m);
  const double ab = SolveEntropicOtOracle(cost_ab, lambda).reg_value;
  const double aa = SolveEntropicOtOracle(cost_aa, lambda).reg_value;
  const double bb = SolveEntropicOtOracle(cost_bb, lambda).reg_value;
  return 2.0 * ab - aa - bb;
}

std::vector<double> NumericDimLossGrad(GenerativeImputer& model,
                                       const DimOptions& opts, const Matrix& x,
                                       const Matrix& m, double h) {
  DimTrainer trainer(opts);
  ParamStore& store = model.generator_params();
  std::vector<double> theta = store.ToFlat();
  std::vector<double> grad(theta.size());
  std::vector<double> probe = theta;
  for (size_t i = 0; i < theta.size(); ++i) {
    probe[i] = theta[i] + h;
    store.FromFlat(probe);
    const double up = trainer.EvalLoss(model, x, m);
    probe[i] = theta[i] - h;
    store.FromFlat(probe);
    const double down = trainer.EvalLoss(model, x, m);
    probe[i] = theta[i];
    grad[i] = (up - down) / (2.0 * h);
  }
  store.FromFlat(theta);
  return grad;
}

namespace {

// One backward pass per observed cell; `accumulate` receives the flattened
// per-cell parameter gradient ∂x̄_c/∂θ.
void ForEachCellGradient(
    GenerativeImputer& model, const Dataset& data,
    const std::function<void(const std::vector<double>&)>& accumulate) {
  ParamStore& store = model.generator_params();
  const size_t p = store.NumScalars();
  const Matrix& x = data.values();
  const Matrix& m = data.mask();
  std::vector<double> flat;
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) {
      if (m(i, j) != 1.0) continue;
      Tape tape;
      Var xbar = model.ReconstructOnTape(tape, x, m, /*train=*/false);
      Matrix one_hot(x.rows(), x.cols());
      one_hot(i, j) = 1.0;
      Var probe = Sum(Mul(xbar, tape.Constant(std::move(one_hot))));
      tape.Backward(probe);
      std::vector<Matrix> grads = store.CollectGrads();
      flat.clear();
      flat.reserve(p);
      for (const Matrix& g : grads) {
        flat.insert(flat.end(), g.data(), g.data() + g.size());
      }
      SCIS_CHECK_EQ(flat.size(), p);
      accumulate(flat);
    }
  }
}

}  // namespace

Matrix DenseGaussNewton(GenerativeImputer& model, const Dataset& data) {
  const size_t p = model.generator_params().NumScalars();
  Matrix h(p, p);
  ForEachCellGradient(model, data, [&](const std::vector<double>& g) {
    for (size_t i = 0; i < p; ++i) {
      if (g[i] == 0.0) continue;
      double* row = h.row_data(i);
      for (size_t j = 0; j < p; ++j) row[j] += g[i] * g[j];
    }
  });
  MulScalarInPlace(h, 1.0 / static_cast<double>(data.num_rows()));
  return h;
}

std::vector<double> DenseGaussNewtonDiag(GenerativeImputer& model,
                                         const Dataset& data) {
  const size_t p = model.generator_params().NumScalars();
  std::vector<double> diag(p, 0.0);
  ForEachCellGradient(model, data, [&](const std::vector<double>& g) {
    for (size_t i = 0; i < p; ++i) diag[i] += g[i] * g[i];
  });
  for (double& d : diag) d /= static_cast<double>(data.num_rows());
  return diag;
}

double FullCovarianceProbability(GenerativeImputer& model,
                                 const Dataset& curvature_data,
                                 const Dataset& validation,
                                 const SseOptions& opts, size_t n0, size_t n,
                                 size_t data_size) {
  SCIS_CHECK(0 < n0 && n0 <= n && n <= data_size);
  ParamStore& store = model.generator_params();
  const std::vector<double> theta0 = store.ToFlat();
  const size_t p = theta0.size();

  Matrix h = DenseGaussNewton(model, curvature_data);
  double mean_diag = 0.0;
  for (size_t j = 0; j < p; ++j) mean_diag += h(j, j);
  mean_diag /= static_cast<double>(p);
  const double floor = std::max(mean_diag * 1e-3, 1e-12);
  for (size_t j = 0; j < p; ++j) h(j, j) += floor;
  Result<Matrix> chol = Cholesky(h);
  SCIS_CHECK_MSG(chol.ok(), "ridged Gauss-Newton matrix is not SPD");
  const Matrix& l = chol.value();

  const double zeta = SseZeta(opts.lambda, validation.num_cols());
  auto eta = [&](size_t from, size_t to) {
    return opts.eta_scale * zeta *
           std::max(0.0, 1.0 / static_cast<double>(from) -
                             1.0 / static_cast<double>(to));
  };
  const double step_n = std::sqrt(eta(n0, n));
  const double step_N = std::sqrt(eta(n, data_size));

  // x = L⁻ᵀ z by back-substitution on Lᵀ x = z.
  Rng rng(opts.seed);
  auto draw = [&] {
    std::vector<double> z(p), x(p);
    for (double& v : z) v = rng.Normal();
    for (size_t j = p; j-- > 0;) {
      double v = z[j];
      for (size_t i = j + 1; i < p; ++i) v -= l(i, j) * x[i];
      x[j] = v / l(j, j);
    }
    return x;
  };

  const Matrix& mask = validation.mask();
  int pass = 0;
  std::vector<double> theta_n(p), theta_N(p);
  for (int pair = 0; pair < opts.k; ++pair) {
    const std::vector<double> d1 = draw();
    const std::vector<double> d2 = draw();
    for (size_t j = 0; j < p; ++j) {
      theta_n[j] = theta0[j] + step_n * d1[j];
      theta_N[j] = theta_n[j] + step_N * d2[j];
    }
    store.FromFlat(theta_n);
    const Matrix xa = model.Reconstruct(validation);
    store.FromFlat(theta_N);
    const Matrix xb = model.Reconstruct(validation);
    double acc = 0.0;
    size_t cells = 0;
    for (size_t i = 0; i < xa.rows(); ++i) {
      for (size_t j = 0; j < xa.cols(); ++j) {
        if (mask(i, j) != 1.0) continue;
        acc += (xa(i, j) - xb(i, j)) * (xa(i, j) - xb(i, j));
        ++cells;
      }
    }
    const double dist = cells ? std::sqrt(acc / static_cast<double>(cells))
                              : 0.0;
    if (dist <= opts.epsilon) ++pass;
  }
  store.FromFlat(theta0);
  return static_cast<double>(pass) / static_cast<double>(opts.k);
}

}  // namespace scis::testkit
