// Central registry for trainable parameters.
//
// Parameters live here as plain matrices between steps. Each training step
// the model Bind()s them onto a fresh Tape as differentiable leaves, runs
// forward/backward, then CollectGrads() gathers the leaf gradients in
// registration order for the optimizer. The store can also flatten all
// parameters into one vector — the "θ" that SSE's Theorem 1 reasons about.
#ifndef SCIS_NN_PARAM_STORE_H_
#define SCIS_NN_PARAM_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "tensor/matrix.h"

namespace scis {

class ParamStore {
 public:
  using ParamId = size_t;

  ParamId Add(std::string name, Matrix init);

  size_t size() const { return params_.size(); }
  const std::string& name(ParamId id) const { return params_[id].name; }
  Matrix& value(ParamId id) { return params_[id].value; }
  const Matrix& value(ParamId id) const { return params_[id].value; }

  // Creates a differentiable leaf for param `id` on `tape` and remembers the
  // binding so CollectGrads can read its gradient after Backward(). The leaf
  // borrows the stored value (LeafRef) — no copy; do not Add() parameters
  // while bindings are live (entries would relocate under the tape).
  Var Bind(Tape& tape, ParamId id);

  // Gradients of all parameters w.r.t. the last Backward() on the bound
  // tape, in registration order (zero matrices for unbound params, and for
  // bindings whose tape has since been cleared or destroyed).
  // Clears the bindings.
  std::vector<Matrix> CollectGrads();

  // Zero-copy variant: fills `out` with views of the tape-owned gradient
  // accumulators in registration order; nullptr marks a parameter that was
  // never bound (i.e. a structurally zero gradient the optimizer may skip).
  // Clears the bindings. The pointers stay valid until the bound tape is
  // Clear()ed or runs another Backward().
  void CollectGradsInto(std::vector<const Matrix*>* out);

  // Forgets the current tape bindings without touching gradients (for
  // tapes that were only used for evaluation).
  void DropBindings();

  // Total number of scalar parameters.
  size_t NumScalars() const;
  // Flattens all parameter values into one vector (registration order,
  // row-major within each matrix).
  std::vector<double> ToFlat() const;
  // Restores parameter values from a flat vector produced by ToFlat().
  void FromFlat(const std::vector<double>& flat);

 private:
  struct Entry {
    std::string name;
    Matrix value;
    // The binding: the tape's generation cell and the id it held at Bind().
    // The binding is live only while the cell still holds that id, so one
    // left behind by a cleared or destroyed tape reads as unbound.
    std::shared_ptr<const uint64_t> bound_generation;
    uint64_t bound_tape_id = 0;
    Var bound_var;

    bool bound() const {
      return bound_generation != nullptr && *bound_generation == bound_tape_id;
    }
    void Unbind() {
      bound_generation.reset();
      bound_tape_id = 0;
      bound_var = Var();
    }
  };
  std::vector<Entry> params_;
};

}  // namespace scis

#endif  // SCIS_NN_PARAM_STORE_H_
