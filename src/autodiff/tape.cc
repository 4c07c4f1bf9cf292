#include "autodiff/tape.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "kernels/arena.h"
#include "kernels/elementwise.h"
#include "kernels/linear.h"
#include "kernels/lse.h"
#include "kernels/matmul.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "tensor/sparse.h"

namespace scis {

const Matrix& Var::value() const { return tape_->value(*this); }
const Matrix& Var::grad() const { return tape_->grad(*this); }

namespace {

std::atomic<uint64_t> g_next_tape_id{1};

// Same floor as tensor/matrix_ops.cc Log().
constexpr double kLogFloor = 1e-300;

// BCE probability clamp (namespace scope: std::clamp takes by reference,
// so a local constexpr would be odr-used from the backward lambda).
constexpr double kBceEps = 1e-8;

// Grain conventions mirror tensor/matrix_ops.cc: ~1 op per element for
// cheap arithmetic, ~8 for transcendental maps. Chunk boundaries never
// affect bits for elementwise loops; matmuls use RowAlignedGrain so tile
// boundaries stay a pure function of the shape.
size_t ElemGrain(size_t size) { return runtime::GrainForWork(size, 1); }
size_t MapGrain(size_t size) { return runtime::GrainForWork(size, 8); }

// Cached handles for the pool counters Clear() publishes.
struct PoolObs {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* recycled;
  obs::Gauge* bytes;

  static const PoolObs& Get() {
    static const PoolObs m = [] {
      obs::Registry& r = obs::Registry::Global();
      return PoolObs{
          r.GetCounter("tape.pool.hits"),
          r.GetCounter("tape.pool.misses"),
          r.GetCounter("tape.pool.recycled"),
          r.GetGauge("tape.pool.bytes"),
      };
    }();
    return m;
  }
};

Matrix PoolCopy(Tape& t, const Matrix& src) {
  Matrix out = t.Temp(src.rows(), src.cols());
  std::copy(src.data(), src.data() + src.size(), out.data());
  return out;
}

// out = src · s into pooled storage; the pooled twin of MulScalar(src, s).
Matrix ScaledCopy(Tape& t, const Matrix& src, double s) {
  Matrix out = t.Temp(src.rows(), src.cols());
  const double* ps = src.data();
  double* po = out.data();
  runtime::ParallelFor(0, src.size(), ElemGrain(src.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) po[k] = ps[k] * s;
                       });
  return out;
}

// Packs b into pooled scratch and accumulates a·b into `out` (which must be
// zeroed) — the pooled twin of tensor/matrix_ops.cc MatMul.
void MatMulIntoPooled(Tape& t, const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows(), k = b.rows(), n = b.cols();
  Matrix bp = t.Temp(1, kernels::PackedSize(k, n));
  const size_t tiles = kernels::NumPanels(n);
  runtime::ParallelFor(0, tiles,
                       runtime::GrainForWork(tiles, k * kernels::kColTile),
                       [&](size_t t0, size_t t1) {
                         kernels::PackPanels(b.data(), k, n, t0, t1, bp.data());
                       });
  const size_t grain =
      kernels::RowAlignedGrain(runtime::GrainForWork(m, k * n));
  runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
    kernels::MatMulRowsPacked(a.data(), bp.data(), out->data(), i0, i1, k, n);
  });
  t.Recycle(std::move(bp));
}

// dst += g·bᵀ, full contribution into a pooled temp (the kernel overwrites,
// so no zeroing), handed over by move.
void SinkMatMulTransB(Tape& t, Var dst, const Matrix& g, const Matrix& b) {
  SCIS_CHECK_MSG(g.cols() == b.cols(), "MatMulTransB dimension mismatch");
  const size_t m = g.rows(), k = g.cols(), n = b.rows();
  Matrix out = t.Temp(m, n);
  const size_t grain =
      kernels::RowAlignedGrain(runtime::GrainForWork(m, k * n));
  runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
    kernels::MatMulTransBRows(g.data(), b.data(), out.data(), i0, i1, k, n);
  });
  t.AccumulateGrad(dst, std::move(out));
}

// dst += aᵀ·g via the packed transpose kernel (accumulating, zeroed temp).
void SinkMatMulTransA(Tape& t, Var dst, const Matrix& a, const Matrix& g) {
  SCIS_CHECK_MSG(a.rows() == g.rows(), "MatMulTransA dimension mismatch");
  const size_t m = a.cols(), k = a.rows(), n = g.cols();
  Matrix bp = t.Temp(1, kernels::PackedSize(k, n));
  const size_t tiles = kernels::NumPanels(n);
  runtime::ParallelFor(0, tiles,
                       runtime::GrainForWork(tiles, k * kernels::kColTile),
                       [&](size_t t0, size_t t1) {
                         kernels::PackPanels(g.data(), k, n, t0, t1, bp.data());
                       });
  Matrix out = t.TempZeroed(m, n);
  const size_t grain =
      kernels::RowAlignedGrain(runtime::GrainForWork(m, k * n));
  runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
    kernels::MatMulTransARowsPacked(a.data(), m, bp.data(), out.data(), i0, i1,
                                    k, n);
  });
  t.Recycle(std::move(bp));
  t.AccumulateGrad(dst, std::move(out));
}

kernels::Act ToKernelAct(Activation act) {
  switch (act) {
    case Activation::kNone:
      return kernels::Act::kIdentity;
    case Activation::kSigmoid:
      return kernels::Act::kSigmoid;
    case Activation::kRelu:
      return kernels::Act::kRelu;
    case Activation::kTanh:
      return kernels::Act::kTanh;
  }
  SCIS_CHECK_MSG(false, "unknown activation");
  return kernels::Act::kIdentity;
}

}  // namespace

Tape::Tape()
    : generation_(std::make_shared<uint64_t>(g_next_tape_id++)) {}

Tape::~Tape() {
  *generation_ = 0;
  ReportPoolStats();
}

Tape::NodeRec& Tape::Push(Matrix value, const Matrix* value_ref,
                          bool requires_grad) {
  nodes_.emplace_back();
  NodeRec& n = nodes_.back();
  n.value = std::move(value);
  n.value_ref = value_ref;
  n.grad_alive = false;
  n.requires_grad = requires_grad;
  n.num_parents = 0;
  return n;
}

Var Tape::Leaf(Matrix value) {
  Push(std::move(value), nullptr, true);
  return Var(this, nodes_.size() - 1);
}

Var Tape::LeafRef(const Matrix* value) {
  Push(Matrix(), value, true);
  return Var(this, nodes_.size() - 1);
}

Var Tape::Constant(Matrix value) {
  Push(std::move(value), nullptr, false);
  return Var(this, nodes_.size() - 1);
}

Var Tape::ConstantRef(const Matrix* value) {
  Push(Matrix(), value, false);
  return Var(this, nodes_.size() - 1);
}

Var Tape::Node(Matrix value, std::initializer_list<Var> parents,
               BackwardFn backward) {
  SCIS_CHECK_MSG(parents.size() <= kMaxParents, "too many node parents");
  bool needs_grad = false;
  uint32_t pidx[kMaxParents] = {};
  uint8_t np = 0;
  for (const Var& p : parents) {
    SCIS_CHECK_MSG(p.tape() == this, "op mixes nodes from different tapes");
    needs_grad = needs_grad || nodes_[p.index()].requires_grad;
    pidx[np++] = static_cast<uint32_t>(p.index());
  }
  NodeRec& n = Push(std::move(value), nullptr, needs_grad);
  n.num_parents = np;
  for (uint8_t i = 0; i < np; ++i) n.parents[i] = pidx[i];
  if (needs_grad) n.backward = std::move(backward);
  return Var(this, nodes_.size() - 1);
}

const Matrix& Tape::value(Var v) const {
  SCIS_CHECK_LT(v.index(), nodes_.size());
  return ValueOf(nodes_[v.index()]);
}

const Matrix& Tape::grad(Var v) const {
  SCIS_CHECK_LT(v.index(), nodes_.size());
  const NodeRec& n = nodes_[v.index()];
  if (!n.grad_alive) {
    // Zero gradient with the node's shape, materialized on demand from the
    // pool (a recycled buffer keeps its shape across steps, so steady state
    // is a Fill).
    NodeRec& mut = const_cast<NodeRec&>(n);
    const Matrix& val = ValueOf(n);
    if (mut.grad.rows() == val.rows() && mut.grad.cols() == val.cols()) {
      mut.grad.Fill(0.0);
    } else {
      if (!mut.grad.empty()) pool_.Release(std::move(mut.grad));
      mut.grad = pool_.AcquireZeroed(val.rows(), val.cols());
    }
    mut.grad_alive = true;
  }
  return n.grad;
}

bool Tape::requires_grad(Var v) const {
  SCIS_CHECK_LT(v.index(), nodes_.size());
  return nodes_[v.index()].requires_grad;
}

void Tape::AccumulateGrad(Var v, const Matrix& delta) {
  NodeRec& n = nodes_[v.index()];
  if (!n.requires_grad) return;
  if (!n.grad_alive) {
    if (n.grad.rows() != delta.rows() || n.grad.cols() != delta.cols()) {
      if (!n.grad.empty()) pool_.Release(std::move(n.grad));
      n.grad = pool_.Acquire(delta.rows(), delta.cols());
    }
    std::copy(delta.data(), delta.data() + delta.size(), n.grad.data());
    n.grad_alive = true;
  } else {
    AddInPlace(n.grad, delta);
  }
}

void Tape::AccumulateGrad(Var v, Matrix&& delta) {
  NodeRec& n = nodes_[v.index()];
  if (!n.requires_grad) {
    pool_.Release(std::move(delta));  // recycle the caller's temp
    return;
  }
  if (!n.grad_alive) {
    if (!n.grad.empty()) pool_.Release(std::move(n.grad));  // stale shape
    n.grad = std::move(delta);
    n.grad_alive = true;
  } else {
    AddInPlace(n.grad, delta);
    pool_.Release(std::move(delta));
  }
}

void Tape::Backward(Var loss) {
  SCIS_CHECK_MSG(loss.tape() == this, "loss from another tape");
  const NodeRec& ln = nodes_[loss.index()];
  SCIS_CHECK_MSG(ValueOf(ln).rows() == 1 && ValueOf(ln).cols() == 1,
                 "Backward target must be scalar");
  // Reset gradient liveness from any previous pass (buffers stay put and
  // are overwritten on first touch).
  for (NodeRec& n : nodes_) n.grad_alive = false;
  Matrix seed = pool_.Acquire(1, 1);
  seed(0, 0) = 1.0;
  AccumulateGrad(loss, std::move(seed));
  for (size_t k = loss.index() + 1; k-- > 0;) {
    NodeRec& n = nodes_[k];
    if (!n.grad_alive || !n.backward) continue;
    n.backward(*this, Var(this, k), n.grad);
  }
}

void Tape::Clear() {
  if (nodes_.size() > high_water_) high_water_ = nodes_.size();
  for (NodeRec& n : nodes_) {
    if (!n.value.empty()) pool_.Release(std::move(n.value));
    if (!n.grad.empty()) pool_.Release(std::move(n.grad));
  }
  nodes_.clear();
  nodes_.reserve(high_water_);
  // A cleared tape is a new tape as far as cached bindings are concerned
  // (ParamStore keys on id()).
  *generation_ = g_next_tape_id++;
  ReportPoolStats();
}

void Tape::ReportPoolStats() {
  const TapePool::Stats& s = pool_.stats();
  const PoolObs& m = PoolObs::Get();
  m.hits->Add(s.hits - reported_.hits);
  m.misses->Add(s.misses - reported_.misses);
  m.recycled->Add(s.recycled - reported_.recycled);
  m.bytes->Set(static_cast<double>(s.bytes));
  reported_ = s;
}

Var MatMul(Var a, Var b) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  SCIS_CHECK_MSG(av.cols() == bv.rows(), "MatMul inner dimension mismatch");
  Matrix out = t->TempZeroed(av.rows(), bv.cols());
  MatMulIntoPooled(*t, av, bv, &out);
  return t->Node(std::move(out), {a, b},
                 [a, b](Tape& tape, Var, const Matrix& g) {
                   if (tape.requires_grad(a))
                     SinkMatMulTransB(tape, a, g, b.value());
                   if (tape.requires_grad(b))
                     SinkMatMulTransA(tape, b, a.value(), g);
                 });
}

namespace {
// Pooled elementwise binary forward; op must be a capture-free lambda.
template <typename Op>
Matrix BinaryIntoPooled(Tape& t, const Matrix& a, const Matrix& b, Op op) {
  SCIS_CHECK_MSG(a.SameShape(b), "elementwise op shape mismatch");
  Matrix out = t.Temp(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  runtime::ParallelFor(0, a.size(), ElemGrain(a.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k)
                           po[k] = op(pa[k], pb[k]);
                       });
  return out;
}
}  // namespace

Var Add(Var a, Var b) {
  Tape* t = a.tape();
  Matrix out = BinaryIntoPooled(*t, a.value(), b.value(),
                                [](double x, double y) { return x + y; });
  return t->Node(std::move(out), {a, b},
                 [a, b](Tape& tape, Var, const Matrix& g) {
                   tape.AccumulateGrad(a, g);
                   tape.AccumulateGrad(b, g);
                 });
}

Var Sub(Var a, Var b) {
  Tape* t = a.tape();
  Matrix out = BinaryIntoPooled(*t, a.value(), b.value(),
                                [](double x, double y) { return x - y; });
  return t->Node(std::move(out), {a, b},
                 [a, b](Tape& tape, Var, const Matrix& g) {
                   tape.AccumulateGrad(a, g);
                   if (tape.requires_grad(b))
                     tape.AccumulateGrad(b, ScaledCopy(tape, g, -1.0));
                 });
}

Var Mul(Var a, Var b) {
  Tape* t = a.tape();
  Matrix out = BinaryIntoPooled(*t, a.value(), b.value(),
                                [](double x, double y) { return x * y; });
  return t->Node(
      std::move(out), {a, b}, [a, b](Tape& tape, Var, const Matrix& g) {
        if (tape.requires_grad(a))
          tape.AccumulateGrad(
              a, BinaryIntoPooled(tape, g, b.value(),
                                  [](double x, double y) { return x * y; }));
        if (tape.requires_grad(b))
          tape.AccumulateGrad(
              b, BinaryIntoPooled(tape, g, a.value(),
                                  [](double x, double y) { return x * y; }));
      });
}

Var AddScalar(Var a, double s) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pa = av.data();
  double* po = out.data();
  runtime::ParallelFor(0, av.size(), ElemGrain(av.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) po[k] = pa[k] + s;
                       });
  return t->Node(std::move(out), {a}, [a](Tape& tape, Var, const Matrix& g) {
    tape.AccumulateGrad(a, g);
  });
}

Var MulScalar(Var a, double s) {
  Tape* t = a.tape();
  Matrix out = ScaledCopy(*t, a.value(), s);
  return t->Node(std::move(out), {a},
                 [a, s](Tape& tape, Var, const Matrix& g) {
                   tape.AccumulateGrad(a, ScaledCopy(tape, g, s));
                 });
}

Var AddRowBroadcast(Var a, Var row) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  const Matrix& rv = row.value();
  SCIS_CHECK(rv.rows() == 1 && rv.cols() == av.cols());
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pr = rv.data();
  runtime::ParallelFor(0, av.rows(),
                       runtime::GrainForWork(av.rows(), av.cols()),
                       [&](size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      const double* pa = av.row_data(i);
      double* po = out.row_data(i);
      for (size_t j = 0; j < av.cols(); ++j) po[j] = pa[j] + pr[j];
    }
  });
  return t->Node(std::move(out), {a, row},
                 [a, row](Tape& tape, Var, const Matrix& g) {
                   tape.AccumulateGrad(a, g);
                   if (tape.requires_grad(row)) {
                     // Column sum, serial in row order (matches ColSum).
                     Matrix cs = tape.TempZeroed(1, g.cols());
                     kernels::ColSumAcc(g.data(), g.rows(), g.cols(),
                                        cs.data());
                     tape.AccumulateGrad(row, std::move(cs));
                   }
                 });
}

Var Sigmoid(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pa = av.data();
  double* po = out.data();
  runtime::ParallelFor(0, av.size(), MapGrain(av.size()),
                       [&](size_t kb, size_t ke) {
                         kernels::SigmoidArray(pa + kb, po + kb, ke - kb);
                       });
  // dy/dx = y(1-y), read from the node's own output — no captured copy.
  return t->Node(std::move(out), {a},
                 [a](Tape& tape, Var self, const Matrix& g) {
                   const Matrix& y = self.value();
                   Matrix ga = tape.Temp(y.rows(), y.cols());
                   kernels::ActBackwardArray(kernels::Act::kSigmoid, g.data(),
                                             y.data(), ga.data(), y.size());
                   tape.AccumulateGrad(a, std::move(ga));
                 });
}

Var Relu(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pa = av.data();
  double* po = out.data();
  runtime::ParallelFor(0, av.size(), MapGrain(av.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k)
                           po[k] = pa[k] > 0 ? pa[k] : 0.0;
                       });
  // x > 0 ⟺ y > 0 (and both comparisons reject NaN/−0 identically), so the
  // mask reads the saved output.
  return t->Node(std::move(out), {a},
                 [a](Tape& tape, Var self, const Matrix& g) {
                   const Matrix& y = self.value();
                   Matrix ga = tape.Temp(y.rows(), y.cols());
                   kernels::ActBackwardArray(kernels::Act::kRelu, g.data(),
                                             y.data(), ga.data(), y.size());
                   tape.AccumulateGrad(a, std::move(ga));
                 });
}

Var Tanh(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pa = av.data();
  double* po = out.data();
  runtime::ParallelFor(0, av.size(), MapGrain(av.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k)
                           po[k] = std::tanh(pa[k]);
                       });
  return t->Node(std::move(out), {a},
                 [a](Tape& tape, Var self, const Matrix& g) {
                   const Matrix& y = self.value();
                   Matrix ga = tape.Temp(y.rows(), y.cols());
                   kernels::ActBackwardArray(kernels::Act::kTanh, g.data(),
                                             y.data(), ga.data(), y.size());
                   tape.AccumulateGrad(a, std::move(ga));
                 });
}

Var Exp(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pa = av.data();
  double* po = out.data();
  runtime::ParallelFor(0, av.size(), MapGrain(av.size()),
                       [&](size_t kb, size_t ke) {
                         kernels::ExpArray(pa + kb, po + kb, ke - kb);
                       });
  return t->Node(std::move(out), {a},
                 [a](Tape& tape, Var self, const Matrix& g) {
                   const Matrix& y = self.value();  // dy/dx = y
                   tape.AccumulateGrad(
                       a, BinaryIntoPooled(
                              tape, g, y,
                              [](double x, double v) { return x * v; }));
                 });
}

Var Log(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pa = av.data();
  double* po = out.data();
  runtime::ParallelFor(0, av.size(), MapGrain(av.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k)
                           po[k] = std::log(std::max(pa[k], kLogFloor));
                       });
  return t->Node(std::move(out), {a},
                 [a](Tape& tape, Var, const Matrix& g) {
                   const Matrix& x = a.value();
                   Matrix ga = tape.Temp(x.rows(), x.cols());
                   const double* px = x.data();
                   const double* pg = g.data();
                   double* po2 = ga.data();
                   runtime::ParallelFor(
                       0, x.size(), MapGrain(x.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) {
                           const double inv = 1.0 / std::max(px[k], 1e-12);
                           po2[k] = pg[k] * inv;
                         }
                       });
                   tape.AccumulateGrad(a, std::move(ga));
                 });
}

Var Square(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  Matrix out = t->Temp(av.rows(), av.cols());
  const double* pa = av.data();
  double* po = out.data();
  runtime::ParallelFor(0, av.size(), MapGrain(av.size()),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k)
                           po[k] = pa[k] * pa[k];
                       });
  return t->Node(std::move(out), {a},
                 [a](Tape& tape, Var, const Matrix& g) {
                   const Matrix& x = a.value();
                   tape.AccumulateGrad(
                       a, BinaryIntoPooled(
                              tape, g, x,
                              [](double gv, double xv) {
                                return gv * (xv * 2.0);
                              }));
                 });
}

Var ConcatCols(Var a, Var b) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  SCIS_CHECK_EQ(av.rows(), bv.rows());
  const size_t ca = av.cols();
  Matrix out = t->Temp(av.rows(), ca + bv.cols());
  for (size_t i = 0; i < av.rows(); ++i) {
    std::copy(av.row_data(i), av.row_data(i) + ca, out.row_data(i));
    std::copy(bv.row_data(i), bv.row_data(i) + bv.cols(),
              out.row_data(i) + ca);
  }
  return t->Node(std::move(out), {a, b},
                 [a, b, ca](Tape& tape, Var, const Matrix& g) {
                   if (tape.requires_grad(a)) {
                     Matrix ga = tape.Temp(g.rows(), ca);
                     for (size_t i = 0; i < g.rows(); ++i)
                       std::copy(g.row_data(i), g.row_data(i) + ca,
                                 ga.row_data(i));
                     tape.AccumulateGrad(a, std::move(ga));
                   }
                   if (tape.requires_grad(b)) {
                     const size_t cb = g.cols() - ca;
                     Matrix gb = tape.Temp(g.rows(), cb);
                     for (size_t i = 0; i < g.rows(); ++i)
                       std::copy(g.row_data(i) + ca, g.row_data(i) + g.cols(),
                                 gb.row_data(i));
                     tape.AccumulateGrad(b, std::move(gb));
                   }
                 });
}

Var Sum(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  const size_t r = av.rows(), c = av.cols();
  Matrix out = t->Temp(1, 1);
  out(0, 0) = Sum(av);
  return t->Node(std::move(out), {a},
                 [a, r, c](Tape& tape, Var, const Matrix& g) {
                   Matrix full = tape.Temp(r, c);
                   full.Fill(g(0, 0));
                   tape.AccumulateGrad(a, std::move(full));
                 });
}

Var Mean(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  const size_t r = av.rows(), c = av.cols();
  const double inv = 1.0 / static_cast<double>(r * c);
  Matrix out = t->Temp(1, 1);
  out(0, 0) = Mean(av);
  return t->Node(std::move(out), {a},
                 [a, r, c, inv](Tape& tape, Var, const Matrix& g) {
                   Matrix full = tape.Temp(r, c);
                   full.Fill(g(0, 0) * inv);
                   tape.AccumulateGrad(a, std::move(full));
                 });
}

Var RowSum(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  const size_t c = av.cols();
  Matrix out = t->Temp(av.rows(), 1);
  runtime::ParallelFor(0, av.rows(), runtime::GrainForWork(av.rows(), c),
                       [&](size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      out(i, 0) = kernels::Sum(av.row_data(i), c);
    }
  });
  return t->Node(std::move(out), {a},
                 [a, c](Tape& tape, Var, const Matrix& g) {
                   Matrix full = tape.Temp(g.rows(), c);
                   for (size_t i = 0; i < g.rows(); ++i) {
                     const double gi = g(i, 0);
                     double* row = full.row_data(i);
                     for (size_t j = 0; j < c; ++j) row[j] = gi;
                   }
                   tape.AccumulateGrad(a, std::move(full));
                 });
}

Var RowLogSumExp(Var a) {
  Tape* t = a.tape();
  const Matrix& av = a.value();
  const size_t n = av.rows(), k = av.cols();
  Matrix out = t->Temp(n, 1);
  Matrix softmax(n, k);  // captured for backward (plain allocation: buffers
                         // moved into closures never return to the pool)
  // Rows are independent; SoftmaxRow fuses the max, exp-accumulate, and
  // normalization passes (see kernels/lse.h).
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, 4 * k),
                       [&](size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      out(i, 0) = kernels::SoftmaxRow(av.row_data(i), k, softmax.row_data(i));
    }
  });
  return t->Node(std::move(out), {a},
                 [a, softmax](Tape& tape, Var, const Matrix& g) {
                   Matrix ga = PoolCopy(tape, softmax);
                   for (size_t i = 0; i < ga.rows(); ++i) {
                     kernels::ScaleInPlace(ga.row_data(i), g(i, 0), ga.cols());
                   }
                   tape.AccumulateGrad(a, std::move(ga));
                 });
}

void FusedLinearForward(const Matrix& x, const double* w, const double* b,
                        Activation act, Matrix* out) {
  const size_t m = x.rows(), k = x.cols(), n = out->cols();
  SCIS_CHECK(out->rows() == m);
  const kernels::Act ka = ToKernelAct(act);
  double* y = out->data();
  const size_t grain =
      kernels::RowAlignedGrain(runtime::GrainForWork(m, k * n));
  // Each chunk's rows [i0, i1) are contiguous in y, so the activation is one
  // vectorized pass over them while they are still in cache.
  const auto act_rows = [&](size_t i0, size_t i1) {
    kernels::ActInPlace(ka, y + i0 * n, (i1 - i0) * n);
  };
  if (n <= kernels::kSmallNMax) {
    // Narrow layer: the direct kernel reads W row-major — no pack pass, no
    // padded panel columns, bit-identical accumulation order.
    runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
      kernels::LinearForwardRowsSmallN(x.data(), w, b, y, i0, i1, k, n);
      act_rows(i0, i1);
    });
  } else {
    kernels::ScopedScratch wp(kernels::PackedSize(k, n));
    const size_t tiles = kernels::NumPanels(n);
    runtime::ParallelFor(0, tiles,
                         runtime::GrainForWork(tiles, k * kernels::kColTile),
                         [&](size_t t0, size_t t1) {
                           kernels::PackPanels(w, k, n, t0, t1, wp.data());
                         });
    runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
      kernels::LinearForwardRows(x.data(), wp.data(), b, y, i0, i1, k, n);
      act_rows(i0, i1);
    });
  }
}

Var FusedLinear(Var x, Var w, Var b, Activation act) {
  Tape* t = x.tape();
  const Matrix& xv = x.value();
  const Matrix& wv = w.value();
  const Matrix& bv = b.value();
  SCIS_CHECK_MSG(xv.cols() == wv.rows(), "MatMul inner dimension mismatch");
  SCIS_CHECK(bv.rows() == 1 && bv.cols() == wv.cols());
  const kernels::Act ka = ToKernelAct(act);
  Matrix out = t->Temp(xv.rows(), wv.cols());  // fully overwritten
  FusedLinearForward(xv, wv.data(), bv.data(), act, &out);
  return t->Node(
      std::move(out), {x, w, b},
      [x, w, b, ka](Tape& tape, Var self, const Matrix& g) {
        const Matrix& y = self.value();
        const Matrix& xv2 = x.value();
        const Matrix& wv2 = w.value();
        const size_t m2 = y.rows(), n2 = y.cols(), k2 = xv2.cols();
        // dz = g ⊙ act'(y); aliases g directly for the identity activation.
        Matrix dz;
        const double* dzp = g.data();
        if (ka != kernels::Act::kIdentity) {
          dz = tape.Temp(m2, n2);
          const size_t sz = m2 * n2;
          runtime::ParallelFor(0, sz, MapGrain(sz),
                               [&](size_t kb, size_t ke) {
                                 kernels::ActBackwardArray(
                                     ka, g.data() + kb, y.data() + kb,
                                     dz.data() + kb, ke - kb);
                               });
          dzp = dz.data();
        }
        if (tape.requires_grad(b)) {
          Matrix db = tape.TempZeroed(1, n2);
          kernels::ColSumAcc(dzp, m2, n2, db.data());
          tape.AccumulateGrad(b, std::move(db));
        }
        if (tape.requires_grad(w)) {
          // dW = xᵀ·dz (accumulating kernel over zeroed temp).
          Matrix dw = tape.TempZeroed(k2, n2);
          const size_t grain2 =
              kernels::RowAlignedGrain(runtime::GrainForWork(k2, m2 * n2));
          if (n2 <= kernels::kSmallNMax) {
            // Narrow layer: consume dz row-major directly instead of packing
            // an m2 × n2 panel copy of it every step.
            runtime::ParallelFor(0, k2, grain2, [&](size_t i0, size_t i1) {
              kernels::MatMulTransARowsSmallN(xv2.data(), k2, dzp, dw.data(),
                                              i0, i1, m2, n2);
            });
          } else {
            Matrix bp = tape.Temp(1, kernels::PackedSize(m2, n2));
            const size_t tiles2 = kernels::NumPanels(n2);
            runtime::ParallelFor(
                0, tiles2,
                runtime::GrainForWork(tiles2, m2 * kernels::kColTile),
                [&](size_t t0, size_t t1) {
                  kernels::PackPanels(dzp, m2, n2, t0, t1, bp.data());
                });
            runtime::ParallelFor(0, k2, grain2, [&](size_t i0, size_t i1) {
              kernels::MatMulTransARowsPacked(xv2.data(), k2, bp.data(),
                                              dw.data(), i0, i1, m2, n2);
            });
            tape.Recycle(std::move(bp));
          }
          tape.AccumulateGrad(w, std::move(dw));
        }
        if (tape.requires_grad(x)) {
          // dX = dz·wᵀ (overwriting kernel).
          Matrix dx = tape.Temp(m2, k2);
          const size_t grain3 =
              kernels::RowAlignedGrain(runtime::GrainForWork(m2, n2 * k2));
          if (k2 <= kernels::kSmallNMax) {
            runtime::ParallelFor(0, m2, grain3, [&](size_t i0, size_t i1) {
              kernels::MatMulTransBRowsSmallN(dzp, wv2.data(), dx.data(), i0,
                                              i1, n2, k2);
            });
          } else {
            runtime::ParallelFor(0, m2, grain3, [&](size_t i0, size_t i1) {
              kernels::MatMulTransBRows(dzp, wv2.data(), dx.data(), i0, i1,
                                        n2, k2);
            });
          }
          tape.AccumulateGrad(x, std::move(dx));
        }
        if (!dz.empty()) tape.Recycle(std::move(dz));
      });
}

Var WeightedMseLoss(Var pred, Var target, Var weight) {
  Tape* t = pred.tape();
  const Matrix& p = pred.value();
  const Matrix& y = target.value();
  const Matrix& w = weight.value();
  SCIS_CHECK(p.SameShape(y) && p.SameShape(w));
  double wsum = Sum(w);
  if (wsum <= 0) wsum = 1.0;  // fully-missing batch: zero loss, zero grad
  // Fused forward: Σ w (p−y)² in one pass, no diff/wdiff temporaries.
  Matrix out = t->Temp(1, 1);
  out(0, 0) = kernels::WeightedSse(w.data(), p.data(), y.data(), p.size()) /
              wsum;
  return t->Node(
      std::move(out), {pred, target, weight},
      [pred, target, weight, wsum](Tape& tape, Var, const Matrix& g) {
        // d/dp [ sum w (p-y)^2 / wsum ] = 2 w (p-y) / wsum
        const Matrix& pv = pred.value();
        const Matrix& yv = target.value();
        const Matrix& wv = weight.value();
        Matrix gp = tape.Temp(pv.rows(), pv.cols());
        kernels::WeightedDiff(wv.data(), pv.data(), yv.data(),
                              2.0 * g(0, 0) / wsum, gp.data(), pv.size());
        if (tape.requires_grad(target))
          tape.AccumulateGrad(target, ScaledCopy(tape, gp, -1.0));
        tape.AccumulateGrad(pred, std::move(gp));
      });
}

Var WeightedBceLoss(Var p, Var labels, Var weight) {
  Tape* t = p.tape();
  const Matrix& pv = p.value();
  const Matrix& yv = labels.value();
  const Matrix& wv = weight.value();
  SCIS_CHECK(pv.SameShape(yv) && pv.SameShape(wv));
  double wsum = Sum(wv);
  if (wsum <= 0) wsum = 1.0;
  double acc = 0.0;
  for (size_t k = 0; k < pv.size(); ++k) {
    const double pk = std::clamp(pv.data()[k], kBceEps, 1.0 - kBceEps);
    const double yk = yv.data()[k], wk = wv.data()[k];
    acc -= wk * (yk * std::log(pk) + (1.0 - yk) * std::log(1.0 - pk));
  }
  Matrix out = t->Temp(1, 1);
  out(0, 0) = acc / wsum;
  return t->Node(
      std::move(out), {p, labels, weight},
      [p, labels, weight, wsum](Tape& tape, Var, const Matrix& g) {
        if (!tape.requires_grad(p)) return;
        const Matrix& pv2 = p.value();
        const Matrix& yv2 = labels.value();
        const Matrix& wv2 = weight.value();
        Matrix gp = tape.Temp(pv2.rows(), pv2.cols());
        for (size_t k = 0; k < pv2.size(); ++k) {
          const double pk = std::clamp(pv2.data()[k], kBceEps, 1.0 - kBceEps);
          const double yk = yv2.data()[k], wk = wv2.data()[k];
          gp.data()[k] =
              g(0, 0) * wk * (pk - yk) / (pk * (1.0 - pk)) / wsum;
        }
        tape.AccumulateGrad(p, std::move(gp));
      });
}

Var SparseMatMul(std::shared_ptr<const SparseMatrix> a, Var x) {
  Tape* t = x.tape();
  Matrix y = a->MatMulDense(x.value());
  return t->Node(std::move(y), {x},
                 [a = std::move(a), x](Tape& tape, Var, const Matrix& g) {
                   if (tape.requires_grad(x))
                     tape.AccumulateGrad(x, a->TransposeMatMulDense(g));
                 });
}

Var CustomScalarOp(Var input, double value, std::function<Matrix()> grad_fn) {
  Tape* t = input.tape();
  Matrix out = t->Temp(1, 1);
  out(0, 0) = value;
  return t->Node(std::move(out), {input},
                 [input, grad_fn](Tape& tape, Var, const Matrix& g) {
                   if (!tape.requires_grad(input)) return;
                   Matrix gi = grad_fn();
                   MulScalarInPlace(gi, g(0, 0));
                   tape.AccumulateGrad(input, std::move(gi));
                 });
}

}  // namespace scis
