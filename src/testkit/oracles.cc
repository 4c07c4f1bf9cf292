#include "testkit/oracles.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"
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

}  // namespace scis::testkit
