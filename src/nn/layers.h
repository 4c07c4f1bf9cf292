// Neural-network building blocks over the autodiff tape: Linear, Dropout,
// and the multi-layer perceptron used by every deep imputer in the paper
// (GAIN/GINN generators & discriminators, AE encoders/decoders, DataWig),
// plus the one tape-free inference forward (InferForward) that imputing,
// serving and SSE's output distance run.
#ifndef SCIS_NN_LAYERS_H_
#define SCIS_NN_LAYERS_H_

#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "nn/init.h"
#include "nn/param_store.h"

namespace scis {

// Activation is defined in autodiff/tape.h (shared with the fused linear
// tape op).

// A borrowed fully-connected layer y = act(x W + b): w is an in × out
// row-major buffer and b its out-long bias, owned elsewhere (a ParamStore,
// a checkpoint, an mmap-ed file).
struct LayerView {
  const double* w = nullptr;
  const double* b = nullptr;
  size_t in = 0, out = 0;
  Activation act = Activation::kNone;
};

// Inference forward through `layers` without a tape or gradient: each layer
// runs FusedLinearForward, the forward of the FusedLinear tape op, so the
// result equals Mlp::Forward on a tape bit for bit at any thread count.
Matrix InferForward(const std::vector<LayerView>& layers, const Matrix& x);

// Fully-connected layer y = act(x W + b). Parameters are registered in the
// given ParamStore; Forward binds them on the caller's tape.
class Linear {
 public:
  Linear(ParamStore* store, const std::string& name, size_t in, size_t out,
         Activation act, Rng& rng,
         InitKind init = InitKind::kXavierUniform);

  Var Forward(Tape& tape, Var x) const;
  // Borrowed view of the current parameters, for InferForward.
  LayerView View() const;

  size_t in_dim() const { return in_; }
  size_t out_dim() const { return out_; }

 private:
  ParamStore* store_;
  size_t in_, out_;
  Activation act_;
  ParamStore::ParamId w_, b_;
};

// Inverted-dropout mask for a rows × cols activation: each entry is
// 1/(1-rate) with probability 1-rate and 0 otherwise, so kept units need no
// rescaling at inference. Dropout and Mlp::InferDropout both draw here.
Matrix DropoutMask(size_t rows, size_t cols, double rate, Rng& rng);

// Inverted dropout x · DropoutMask; the identity (and no draw) at rate 0.
// The paper trains all deep baselines with dropout rate 0.5.
Var Dropout(Var x, double rate, Rng& rng);

// Stack of Linear layers: hidden layers use `hidden_act`, the final layer
// `out_act`.
class Mlp {
 public:
  // dims = {in, h1, ..., out}; needs at least {in, out}.
  Mlp(ParamStore* store, const std::string& name,
      const std::vector<size_t>& dims, Activation hidden_act,
      Activation out_act, Rng& rng);

  Var Forward(Tape& tape, Var x) const;
  // Forward with dropout `rate` after each hidden activation.
  Var ForwardDropout(Tape& tape, Var x, double rate, Rng& rng) const;
  // Tape-free Forward over the current parameters (dropout off), through
  // InferForward.
  Matrix Infer(const Matrix& x) const;
  // Tape-free stochastic forward with dropout on the input and after each
  // hidden activation: draws its masks in the order Dropout on the input
  // and then ForwardDropout draw them and takes the same products, so it
  // equals that tape forward bit for bit.
  Matrix InferDropout(const Matrix& x, double rate, Rng& rng) const;

  size_t in_dim() const { return layers_.front().in_dim(); }
  size_t out_dim() const { return layers_.back().out_dim(); }
  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<Linear> layers_;
};

}  // namespace scis

#endif  // SCIS_NN_LAYERS_H_
