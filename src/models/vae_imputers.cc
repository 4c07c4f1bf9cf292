#include "models/vae_imputers.h"

#include <cmath>

#include "models/column_stats.h"

namespace scis {

VaeCore::VaeCore(ParamStore* store, const std::string& name, size_t in_dim,
                 const std::vector<size_t>& enc_hidden, size_t latent,
                 const std::vector<size_t>& dec_hidden, size_t out_dim,
                 Rng& rng) {
  std::vector<size_t> enc_dims{in_dim};
  enc_dims.insert(enc_dims.end(), enc_hidden.begin(), enc_hidden.end());
  const size_t trunk_out = enc_dims.back();
  enc_trunk_ = std::make_unique<Mlp>(store, name + ".enc", enc_dims,
                                     Activation::kRelu, Activation::kRelu, rng);
  mu_head_ = std::make_unique<Linear>(store, name + ".mu", trunk_out, latent,
                                      Activation::kNone, rng);
  logvar_head_ = std::make_unique<Linear>(store, name + ".logvar", trunk_out,
                                          latent, Activation::kNone, rng);
  std::vector<size_t> dec_dims{latent};
  dec_dims.insert(dec_dims.end(), dec_hidden.begin(), dec_hidden.end());
  dec_dims.push_back(out_dim);
  decoder_ = std::make_unique<Mlp>(store, name + ".dec", dec_dims,
                                   Activation::kRelu, Activation::kSigmoid,
                                   rng);
}

VaeCore::Posterior VaeCore::Encode(Tape& tape, Var x) const {
  Var h = enc_trunk_->Forward(tape, x);
  return {mu_head_->Forward(tape, h), logvar_head_->Forward(tape, h)};
}

Var VaeCore::Sample(const Posterior& q, Rng& rng) {
  Var eps = q.mu.tape()->Constant(
      rng.NormalMatrix(q.mu.rows(), q.mu.cols(), 0.0, 1.0));
  Var stddev = Exp(MulScalar(q.logvar, 0.5));
  return Add(q.mu, Mul(stddev, eps));
}

Var VaeCore::Decode(Tape& tape, Var z) const {
  return decoder_->Forward(tape, z);
}

Matrix VaeCore::InferPosterior(const Matrix& x, Matrix* logvar) const {
  const Matrix h = enc_trunk_->Infer(x);
  if (logvar) *logvar = InferForward({logvar_head_->View()}, h);
  return InferForward({mu_head_->View()}, h);
}

Matrix VaeCore::InferDecode(const Matrix& z) const {
  return decoder_->Infer(z);
}

Matrix VaeCore::DecodeMean(const Matrix& x) const {
  return InferDecode(InferPosterior(x));
}

Var VaeCore::KlLoss(Var mu, Var logvar) {
  // KL(N(mu, e^lv) || N(0,1)) = 0.5 Σ (e^lv + mu² − 1 − lv), meaned per row.
  const double n = static_cast<double>(mu.rows());
  Var term = Sub(Add(Exp(logvar), Square(mu)), AddScalar(logvar, 1.0));
  return MulScalar(Sum(term), 0.5 / n);
}

// ---------------- VAEI ----------------

void VaeiImputer::BuildModel(size_t d) {
  core_ = std::make_unique<VaeCore>(
      &store_, "vaei", d,
      std::vector<size_t>{vopts_.hidden, vopts_.hidden}, vopts_.latent,
      std::vector<size_t>{vopts_.hidden, vopts_.hidden}, d, rng_);
}

Var VaeiImputer::BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) {
  Var xin = tape.Constant(FillMissing(x, m, train_means_));
  VaeCore::Posterior enc = core_->Encode(tape, xin);
  Var recon = core_->Decode(tape, VaeCore::Sample(enc, rng_));
  Var mse = WeightedMseLoss(recon, tape.Constant(x), tape.Constant(m));
  Var kl = VaeCore::KlLoss(enc.mu, enc.logvar);
  return Add(mse, MulScalar(kl, vopts_.kl_weight));
}

Matrix VaeiImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  return core_->DecodeMean(FillMissing(data, train_means_));
}

// ---------------- MIWAE ----------------

void MiwaeImputer::BuildModel(size_t d) {
  core_ = std::make_unique<VaeCore>(
      &store_, "miwae", 2 * d, std::vector<size_t>{wopts_.hidden},
      wopts_.latent, std::vector<size_t>{wopts_.hidden}, d, rng_);
}

Var MiwaeImputer::BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) {
  Var xin = tape.Constant(ConcatCols(FillMissing(x, m, train_means_), m));
  VaeCore::Posterior enc = core_->Encode(tape, xin);
  Var target = tape.Constant(x);
  Var weight = tape.Constant(m);

  // Exact K-sample IWAE bound. Per sample k the per-row log weight is
  //   log w_k = log p(x_obs|z_k) + log p(z_k) − log q(z_k|x)
  // with Gaussian terms (constants dropped — they cancel in gradients):
  //   log p(x_obs|z) = −Σ_f m·(dec−x)² / (2σ²)
  //   log p(z)       = −½ Σ_l z²
  //   log q(z|x)     = −½ Σ_l (ε² + logvar)      [z = μ + e^{lv/2} ε]
  const double inv2var =
      1.0 / (2.0 * wopts_.obs_stddev * wopts_.obs_stddev);
  const size_t n = x.rows();
  // The posterior terms shared by every sample, built once.
  Var sigma = Exp(MulScalar(enc.logvar, 0.5));
  Var logvar_sum = RowSum(enc.logvar);
  Var logw_all;  // (n, K), built by column concatenation
  for (int k = 0; k < wopts_.importance_samples; ++k) {
    Matrix eps_mat =
        rng_.NormalMatrix(enc.mu.rows(), enc.mu.cols(), 0.0, 1.0);
    // Σ ε² per row is constant w.r.t. parameters.
    Matrix eps2_row(n, 1);
    for (size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (size_t l = 0; l < eps_mat.cols(); ++l) {
        acc += eps_mat(i, l) * eps_mat(i, l);
      }
      eps2_row(i, 0) = acc;
    }
    Var eps = tape.Constant(std::move(eps_mat));
    Var z = Add(enc.mu, Mul(sigma, eps));
    Var dec = core_->Decode(tape, z);
    Var logp_x = MulScalar(
        RowSum(Mul(Square(Sub(dec, target)), weight)), -inv2var);
    Var logp_z = MulScalar(RowSum(Square(z)), -0.5);
    Var logq = MulScalar(
        Add(logvar_sum, tape.Constant(eps2_row)), -0.5);
    Var logw = Sub(Add(logp_x, logp_z), logq);  // (n,1)
    logw_all = k == 0 ? logw : ConcatCols(logw_all, logw);
  }
  // −mean_i [ LSE_k log w_ik − log K ]; the log K shift is constant.
  return MulScalar(Mean(RowLogSumExp(logw_all)), -1.0);
}

Matrix MiwaeImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  const size_t n = data.num_rows(), d = data.num_cols();
  Matrix logvar;
  const Matrix mu = core_->InferPosterior(
      ConcatCols(FillMissing(data, train_means_), data.mask()), &logvar);

  // Self-normalized importance sampling: weight each decoded sample by the
  // Gaussian likelihood of the observed cells.
  Matrix acc(n, d);
  Matrix wsum(n, 1);
  const double inv_2var = 1.0 / (2.0 * wopts_.obs_stddev * wopts_.obs_stddev);
  // The noise comes from a copy of the model's stream, so every call agrees.
  Rng rng = rng_;
  for (int k = 0; k < wopts_.importance_samples; ++k) {
    Matrix z = mu;
    for (size_t i = 0; i < z.rows(); ++i)
      for (size_t j = 0; j < z.cols(); ++j)
        z(i, j) += std::exp(0.5 * logvar(i, j)) * rng.Normal();
    const Matrix dec = core_->InferDecode(z);
    for (size_t i = 0; i < n; ++i) {
      double loglik = 0.0;
      for (size_t j = 0; j < d; ++j) {
        if (data.IsObserved(i, j)) {
          const double e = dec(i, j) - data.values()(i, j);
          loglik -= e * e * inv_2var;
        }
      }
      const double w = std::exp(std::max(loglik, -30.0));
      wsum(i, 0) += w;
      for (size_t j = 0; j < d; ++j) acc(i, j) += w * dec(i, j);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double w = wsum(i, 0) > 0 ? wsum(i, 0) : 1.0;
    for (size_t j = 0; j < d; ++j) acc(i, j) /= w;
  }
  return acc;
}

// ---------------- EDDI ----------------

void EddiImputer::BuildModel(size_t d) {
  // Partial VAE: evidence is the masked values plus the mask itself.
  core_ = std::make_unique<VaeCore>(
      &store_, "eddi", 2 * d, std::vector<size_t>{eopts_.hidden},
      eopts_.latent, std::vector<size_t>{eopts_.hidden}, d, rng_);
}

Var EddiImputer::BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) {
  Var xin = tape.Constant(ConcatCols(x, m));  // x already has missing = 0
  VaeCore::Posterior enc = core_->Encode(tape, xin);
  Var recon = core_->Decode(tape, VaeCore::Sample(enc, rng_));
  Var mse = WeightedMseLoss(recon, tape.Constant(x), tape.Constant(m));
  return Add(mse, MulScalar(VaeCore::KlLoss(enc.mu, enc.logvar),
                            eopts_.kl_weight));
}

Matrix EddiImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  return core_->DecodeMean(ConcatCols(data.values(), data.mask()));
}

// ---------------- HIVAE ----------------

void HivaeImputer::BuildModel(size_t d) {
  core_ = std::make_unique<VaeCore>(
      &store_, "hivae", 2 * d, std::vector<size_t>{hopts_.hidden},
      hopts_.latent, std::vector<size_t>{hopts_.hidden}, d, rng_);
}

Var HivaeImputer::BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) {
  Var xin = tape.Constant(ConcatCols(FillMissing(x, m, train_means_), m));
  VaeCore::Posterior enc = core_->Encode(tape, xin);
  Var recon = core_->Decode(tape, VaeCore::Sample(enc, rng_));
  Var mse = WeightedMseLoss(recon, tape.Constant(x), tape.Constant(m));
  return Add(mse, MulScalar(VaeCore::KlLoss(enc.mu, enc.logvar),
                            hopts_.kl_weight));
}

Matrix HivaeImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  return core_->DecodeMean(
      ConcatCols(FillMissing(data, train_means_), data.mask()));
}

}  // namespace scis
