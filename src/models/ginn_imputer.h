// GINN — graph imputation neural network (Spinelli et al.).
//
// A symmetric kNN similarity graph over the samples (mask-aware distance)
// feeds a two-layer GCN autoencoder generator:
//   X̄ = sigmoid( Â · relu( Â [X, M] W1 ) W2 ),  Â = D^{-1/2}(A+I)D^{-1/2}.
// A 3-layer feed-forward critic (per §VI) predicts per-cell observedness
// GAIN-style and is trained 5 times per generator step (per §VI).
//
// Fit() builds the full similarity graph — historically the O(n²·d)
// bottleneck the paper cites for GINN's "-" entries on the million-size
// datasets; index::BuildKnnGraph searches an AnnIndex, an exact scan up to
// index::kExactKnnMaxRows rows and the hierarchical k-means tree above,
// and a row sharing no observed coordinate with any other keeps only its
// self loop. ReconstructOnTape() builds a batch-local graph instead, which
// is what lets SCIS-GINN (mini-batch DIM training) run where plain GINN
// cannot. Reconstruct() runs the same GCN over the graph of its input
// without a tape (InferForward and SparseMatrix::MatMulDense), equal to
// ReconstructOnTape bit for bit.
#ifndef SCIS_MODELS_GINN_IMPUTER_H_
#define SCIS_MODELS_GINN_IMPUTER_H_

#include "models/deep_common.h"
#include "tensor/sparse.h"

namespace scis {

struct GinnImputerOptions {
  DeepOptions deep;
  size_t graph_k = 10;       // kNN neighbours in the similarity graph
  size_t hidden = 32;        // GCN hidden width
  size_t critic_hidden = 32; // 3-layer FFN critic width
  int critic_steps = 5;      // critic updates per generator step (§VI)
  double alpha = 10.0;       // reconstruction weight in the generator loss
};

class GinnImputer final : public GenerativeImputer {
 public:
  explicit GinnImputer(GinnImputerOptions opts = {});

  std::string name() const override { return "GINN"; }
  Status Fit(const Dataset& data) override;
  Matrix Reconstruct(const Dataset& data) const override;

  // GenerativeImputer:
  ParamStore& generator_params() override { return gen_store_; }
  const ParamStore& generator_params() const override { return gen_store_; }
  // Builds a batch-local kNN graph and runs the GCN on it.
  Var ReconstructOnTape(Tape& tape, const Matrix& x, const Matrix& m,
                        bool train) override;

 private:
  void EnsureBuilt(size_t d);
  // GCN forward over `graph` (which the tape's backward closures share).
  Var GcnForward(Tape& tape, const Matrix& x, const Matrix& m,
                 std::shared_ptr<const SparseMatrix> graph) const;

  GinnImputerOptions opts_;
  Rng rng_;
  ParamStore gen_store_, critic_store_;
  Adam gen_adam_, critic_adam_;
  std::unique_ptr<Linear> gcn1_, gcn2_;
  std::unique_ptr<Mlp> critic_;
  bool built_ = false;
  Tape critic_tape_, gen_tape_;  // persistent step tapes (pooled storage)
  std::vector<const Matrix*> grad_views_;
};

}  // namespace scis

#endif  // SCIS_MODELS_GINN_IMPUTER_H_
