// The autoencoder-based imputers of §II-A / §VI, built on one shared
// Gaussian-VAE core. Training runs on the tape; Reconstruct runs tape-free
// over the current parameters.
//   VAEI  — plain VAE on the mean-filled row (2x20 hidden, latent 10);
//           imputes with the mean decode (z = mu).
//   MIWAE — multi-sample VAE trained on the exact K-sample IWAE bound;
//           imputation uses self-normalized importance weighting over K
//           decoder samples, with noise from a copy of the model's stream.
//   EDDI  — partial-VAE: the encoder sees [x ⊙ m, m], i.e. only observed
//           evidence (the paper's set-encoder is replaced by the masked
//           fixed-order encoding); imputes with the mean decode.
//   HIVAE — heterogeneous-data VAE reduced to its §VI configuration: one
//           dense layer of 10 units for encoder and decoder; imputes with
//           the mean decode.
#ifndef SCIS_MODELS_VAE_IMPUTERS_H_
#define SCIS_MODELS_VAE_IMPUTERS_H_

#include "models/deep_common.h"

namespace scis {

// Encoder trunk (at least one hidden layer) -> (mu, logvar) heads ->
// reparameterized z -> decoder.
class VaeCore {
 public:
  VaeCore(ParamStore* store, const std::string& name, size_t in_dim,
          const std::vector<size_t>& enc_hidden, size_t latent,
          const std::vector<size_t>& dec_hidden, size_t out_dim, Rng& rng);

  // The posterior q(z|x) = N(mu, exp(logvar)), on the tape.
  struct Posterior {
    Var mu;
    Var logvar;
  };
  Posterior Encode(Tape& tape, Var x) const;
  // One reparameterized draw z = mu + exp(logvar/2) * eps, eps ~ N(0,1)
  // drawn from `rng`.
  static Var Sample(const Posterior& q, Rng& rng);
  Var Decode(Tape& tape, Var z) const;

  // Tape-free inference through Mlp::Infer and InferForward, equal to the
  // tape forward bit for bit. InferPosterior returns mu(x) and, when
  // `logvar` is set, fills it with logvar(x); DecodeMean decodes z = mu(x).
  Matrix InferPosterior(const Matrix& x, Matrix* logvar = nullptr) const;
  Matrix InferDecode(const Matrix& z) const;
  Matrix DecodeMean(const Matrix& x) const;

  // Mean KL(q(z|x) || N(0,I)) per batch row.
  static Var KlLoss(Var mu, Var logvar);

 private:
  std::unique_ptr<Mlp> enc_trunk_;
  std::unique_ptr<Linear> mu_head_, logvar_head_;
  std::unique_ptr<Mlp> decoder_;
};

struct VaeImputerOptions {
  DeepOptions deep;
  size_t hidden = 20;     // §VI: two hidden layers, 20 neurons
  size_t latent = 10;     // §VI: 10-dimensional latent space
  double kl_weight = 1e-2;
};

class VaeiImputer final : public DeepImputerBase {
 public:
  explicit VaeiImputer(VaeImputerOptions opts = {})
      : DeepImputerBase(opts.deep), vopts_(opts) {}

  std::string name() const override { return "VAEI"; }
  Matrix Reconstruct(const Dataset& data) const override;

 protected:
  void BuildModel(size_t d) override;
  Var BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) override;

 private:
  VaeImputerOptions vopts_;
  std::unique_ptr<VaeCore> core_;
};

struct MiwaeImputerOptions {
  DeepOptions deep;
  size_t hidden = 64;
  size_t latent = 10;
  double kl_weight = 1e-2;
  int importance_samples = 5;  // K
  double obs_stddev = 0.1;     // Gaussian observation model
  // Training minimizes the exact K-sample IWAE bound
  //   −E_x[ log (1/K) Σ_k p(x_obs|z_k) p(z_k) / q(z_k|x) ]
  // via RowLogSumExp.
};

class MiwaeImputer final : public DeepImputerBase {
 public:
  explicit MiwaeImputer(MiwaeImputerOptions opts = {})
      : DeepImputerBase(opts.deep), wopts_(opts) {}

  std::string name() const override { return "MIWAE"; }
  Matrix Reconstruct(const Dataset& data) const override;

 protected:
  void BuildModel(size_t d) override;
  Var BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) override;

 private:
  MiwaeImputerOptions wopts_;
  std::unique_ptr<VaeCore> core_;
};

struct EddiImputerOptions {
  DeepOptions deep;
  size_t hidden = 32;
  size_t latent = 10;
  double kl_weight = 1e-2;
};

class EddiImputer final : public DeepImputerBase {
 public:
  explicit EddiImputer(EddiImputerOptions opts = {})
      : DeepImputerBase(opts.deep), eopts_(opts) {}

  std::string name() const override { return "EDDI"; }
  Matrix Reconstruct(const Dataset& data) const override;

 protected:
  void BuildModel(size_t d) override;
  Var BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) override;

 private:
  EddiImputerOptions eopts_;
  std::unique_ptr<VaeCore> core_;
};

struct HivaeImputerOptions {
  DeepOptions deep;
  size_t hidden = 10;  // §VI: one dense layer, 10 neurons per side
  size_t latent = 10;
  double kl_weight = 1e-2;
};

class HivaeImputer final : public DeepImputerBase {
 public:
  explicit HivaeImputer(HivaeImputerOptions opts = {})
      : DeepImputerBase(opts.deep), hopts_(opts) {}

  std::string name() const override { return "HIVAE"; }
  Matrix Reconstruct(const Dataset& data) const override;

 protected:
  void BuildModel(size_t d) override;
  Var BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) override;

 private:
  HivaeImputerOptions hopts_;
  std::unique_ptr<VaeCore> core_;
};

}  // namespace scis

#endif  // SCIS_MODELS_VAE_IMPUTERS_H_
