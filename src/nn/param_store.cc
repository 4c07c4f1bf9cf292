#include "nn/param_store.h"

namespace scis {

ParamStore::ParamId ParamStore::Add(std::string name, Matrix init) {
  params_.push_back(Entry{std::move(name), std::move(init), nullptr, 0, Var()});
  return params_.size() - 1;
}

Var ParamStore::Bind(Tape& tape, ParamId id) {
  SCIS_CHECK_LT(id, params_.size());
  Entry& e = params_[id];
  // Re-binding on the same tape within one step returns the same leaf, so a
  // parameter shared by two sub-networks accumulates both gradients.
  // Tapes are identified by id, not address (stack tapes recycle addresses).
  if (e.bound() && e.bound_tape_id == tape.id()) return e.bound_var;
  e.bound_generation = tape.generation();
  e.bound_tape_id = tape.id();
  e.bound_var = tape.LeafRef(&e.value);
  return e.bound_var;
}

std::vector<Matrix> ParamStore::CollectGrads() {
  std::vector<Matrix> grads;
  grads.reserve(params_.size());
  for (Entry& e : params_) {
    if (e.bound()) {
      grads.push_back(e.bound_var.grad());
    } else {
      grads.push_back(Matrix(e.value.rows(), e.value.cols()));
    }
    e.Unbind();
  }
  return grads;
}

void ParamStore::CollectGradsInto(std::vector<const Matrix*>* out) {
  out->clear();
  out->reserve(params_.size());
  for (Entry& e : params_) {
    out->push_back(e.bound() ? &e.bound_var.grad() : nullptr);
    e.Unbind();
  }
}

void ParamStore::DropBindings() {
  for (Entry& e : params_) e.Unbind();
}

size_t ParamStore::NumScalars() const {
  size_t n = 0;
  for (const Entry& e : params_) n += e.value.size();
  return n;
}

std::vector<double> ParamStore::ToFlat() const {
  std::vector<double> flat;
  flat.reserve(NumScalars());
  for (const Entry& e : params_) {
    flat.insert(flat.end(), e.value.data(), e.value.data() + e.value.size());
  }
  return flat;
}

void ParamStore::FromFlat(const std::vector<double>& flat) {
  SCIS_CHECK_EQ(flat.size(), NumScalars());
  size_t off = 0;
  for (Entry& e : params_) {
    std::copy(flat.begin() + off, flat.begin() + off + e.value.size(),
              e.value.data());
    off += e.value.size();
  }
}

}  // namespace scis
