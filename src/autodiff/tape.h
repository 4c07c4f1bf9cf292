// Reverse-mode automatic differentiation over matrices.
//
// A Tape owns a DAG of nodes, each holding a Matrix value and (lazily) a
// Matrix gradient. Var is a cheap handle (tape pointer + node index).
// Operations are free functions overloading the names in tensor/matrix_ops.h;
// they record a backward closure that scatters the node's gradient into its
// parents. Backward() seeds a scalar loss with 1 and walks nodes in reverse
// creation order (creation order is a topological order by construction).
//
// The tape is rebuilt every training step (define-by-run), matching how the
// paper's models are trained in PyTorch. Because the same graph shapes recur
// every step, the tape recycles all of its storage through a shape-keyed
// TapePool: Clear() parks node values and grad accumulators on free lists
// instead of freeing them, node records live in a flat vector reserved from
// the previous high-water mark, parent links are inline arrays, and backward
// closures use fixed inline storage (BackwardFn) rather than heap-allocating
// std::function state. At steady state a training step performs zero heap
// allocations on the tape path; tape.pool.* obs counters and pool_stats()
// expose the hit/miss evidence. A CustomOp hook lets the masking Sinkhorn
// divergence inject its analytic gradient (Prop. 1) into the graph.
#ifndef SCIS_AUTODIFF_TAPE_H_
#define SCIS_AUTODIFF_TAPE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "autodiff/tape_pool.h"
#include "tensor/matrix.h"
#include "tensor/matrix_ops.h"

namespace scis {

class Tape;

// Layer activation; lives here (not nn/layers.h) so the fused linear tape op
// and the nn layer wrappers share one vocabulary.
enum class Activation { kNone, kSigmoid, kRelu, kTanh };

// Handle to a node on a Tape. Valid until Tape::Clear()/destruction.
class Var {
 public:
  Var() : tape_(nullptr), index_(0) {}
  Var(Tape* tape, size_t index) : tape_(tape), index_(index) {}

  bool valid() const { return tape_ != nullptr; }
  Tape* tape() const { return tape_; }
  size_t index() const { return index_; }

  const Matrix& value() const;
  const Matrix& grad() const;
  size_t rows() const { return value().rows(); }
  size_t cols() const { return value().cols(); }

 private:
  Tape* tape_;
  size_t index_;
};

// Move-only type-erased backward closure with fixed inline storage — the
// tape-path replacement for std::function, which heap-allocates once a
// capture outgrows its (implementation-defined, small) buffer. Closures
// receive the node's own handle (`self`) so activations can read their
// forward output through the tape instead of capturing Matrix copies.
class BackwardFn {
 public:
  static constexpr size_t kStorage = 128;

  BackwardFn() = default;

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, BackwardFn>>>
  BackwardFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kStorage,
                  "backward closure exceeds BackwardFn inline storage; "
                  "capture Vars (and read values via the tape) instead of "
                  "capturing Matrix copies");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned backward closure");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    vtable_ = &Table<Fn>::vt;
  }

  BackwardFn(BackwardFn&& other) noexcept { MoveFrom(other); }
  BackwardFn& operator=(BackwardFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;
  ~BackwardFn() { Reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }

  void Reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  void operator()(Tape& tape, Var self, const Matrix& grad) {
    vtable_->invoke(storage_, tape, self, grad);
  }

 private:
  struct VTable {
    void (*invoke)(void* fn, Tape& tape, Var self, const Matrix& grad);
    void (*move)(void* dst, void* src);  // move-construct dst from src
    void (*destroy)(void* fn);
  };

  template <typename Fn>
  struct Table {
    static void Invoke(void* fn, Tape& tape, Var self, const Matrix& grad) {
      (*static_cast<Fn*>(fn))(tape, self, grad);
    }
    static void Move(void* dst, void* src) {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void Destroy(void* fn) { static_cast<Fn*>(fn)->~Fn(); }
    static constexpr VTable vt{&Invoke, &Move, &Destroy};
  };

  void MoveFrom(BackwardFn& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->move(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kStorage];
  const VTable* vtable_ = nullptr;
};

class Tape {
 public:
  Tape();
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Process-unique identifier. Consumers that cache per-tape state (e.g.
  // ParamStore bindings) must key on this, not the Tape address — stack
  // tapes are routinely destroyed and re-created at the same address, and
  // Clear() bumps the id so recycled tapes shed stale bindings too.
  uint64_t id() const { return *generation_; }

  // The cell id() reads, shared with caches that outlive the tape: it holds
  // the current id while the tape lives, a fresh one after each Clear(),
  // and 0 once the tape is destroyed. A cache holding this cell and the id
  // it recorded can tell a live binding from a stale one without touching
  // the tape.
  std::shared_ptr<const uint64_t> generation() const { return generation_; }

  // Differentiable leaf (model parameters, inputs we differentiate w.r.t.).
  Var Leaf(Matrix value);
  // Differentiable leaf borrowing caller-owned storage (no copy). The
  // pointee must stay alive and at a stable address until Clear(); the
  // ParamStore bind path uses this so parameters are never copied in.
  Var LeafRef(const Matrix* value);
  // Non-differentiable leaf (data batches, masks, hints).
  Var Constant(Matrix value);
  // Non-differentiable borrowing leaf; same lifetime contract as LeafRef.
  Var ConstantRef(const Matrix* value);

  // Interior node. `backward` is invoked with the node's handle and its
  // accumulated gradient and must add the parents' contributions via
  // AccumulateGrad.
  Var Node(Matrix value, std::initializer_list<Var> parents,
           BackwardFn backward);

  const Matrix& value(Var v) const;
  // Gradient of the last Backward() target w.r.t. v (zeros if untouched).
  const Matrix& grad(Var v) const;

  // Adds `delta` into v's gradient accumulator (used by backward closures).
  // The rvalue overload installs `delta`'s buffer directly on first touch
  // and recycles it into the pool otherwise — closures that compute their
  // full contribution into a Temp() hand it over without a copy.
  void AccumulateGrad(Var v, const Matrix& delta);
  void AccumulateGrad(Var v, Matrix&& delta);
  bool requires_grad(Var v) const;

  // Runs reverse-mode accumulation from `loss` (must be 1x1).
  void Backward(Var loss);

  // Drops all nodes and recycles their storage; outstanding Vars become
  // invalid and the tape id changes (invalidating cached bindings).
  void Clear();

  size_t num_nodes() const { return nodes_.size(); }

  // Pooled scratch for ops and backward closures. Temp() contents are
  // unspecified (callers overwrite); buffers handed to AccumulateGrad or
  // Node() flow back automatically, anything else should be Recycle()d.
  Matrix Temp(size_t rows, size_t cols) { return pool_.Acquire(rows, cols); }
  Matrix TempZeroed(size_t rows, size_t cols) {
    return pool_.AcquireZeroed(rows, cols);
  }
  void Recycle(Matrix&& m) { pool_.Release(std::move(m)); }

  // Cumulative pool statistics for this tape (not reset by Clear()).
  const TapePool::Stats& pool_stats() const { return pool_.stats(); }

 private:
  static constexpr size_t kMaxParents = 4;

  struct NodeRec {
    Matrix value;             // owned value (empty when value_ref is set)
    const Matrix* value_ref;  // borrowed value (params, batch data)
    Matrix grad;              // lazily materialized, recycled across steps
    bool grad_alive;          // whether grad has been touched this pass
    bool requires_grad;
    uint8_t num_parents;
    uint32_t parents[kMaxParents];
    BackwardFn backward;
  };

  static const Matrix& ValueOf(const NodeRec& n) {
    return n.value_ref != nullptr ? *n.value_ref : n.value;
  }

  NodeRec& Push(Matrix value, const Matrix* value_ref, bool requires_grad);
  // Publishes pool hit/miss deltas to the tape.pool.* obs counters.
  void ReportPoolStats();

  std::shared_ptr<uint64_t> generation_;  // current id; 0 once destroyed
  std::vector<NodeRec> nodes_;
  size_t high_water_ = 0;        // node count at the last Clear()
  mutable TapePool pool_;        // mutable: grad() materializes lazily
  TapePool::Stats reported_{};   // stats already published to obs
};

// ---- differentiable operations (parallel to tensor/matrix_ops.h) ----
Var MatMul(Var a, Var b);
Var Add(Var a, Var b);
Var Sub(Var a, Var b);
Var Mul(Var a, Var b);           // Hadamard
Var AddScalar(Var a, double s);
Var MulScalar(Var a, double s);
// bias add: row is (1, a.cols()); gradient of row is the column sum.
Var AddRowBroadcast(Var a, Var row);
Var Sigmoid(Var a);
Var Relu(Var a);
Var Tanh(Var a);
Var Exp(Var a);
Var Log(Var a);                  // inputs clamped away from 0
Var Square(Var a);
Var ConcatCols(Var a, Var b);
Var Sum(Var a);                  // -> (1,1)
Var Mean(Var a);                 // -> (1,1)
Var RowSum(Var a);               // (n,d) -> (n,1)
// Per-row log-sum-exp: (n,k) -> (n,1); backward is the row softmax. The
// reduction behind importance-weighted (IWAE/MIWAE) bounds.
Var RowLogSumExp(Var a);

// Fused linear layer: act(x·w + b) as ONE node (the issue's `Linear` tape
// op; named FusedLinear because nn/layers.h already has a Linear class).
// Forward is one register-tiled pass over the packed matmul kernel with the
// bias add at the tile store, then one vectorized activation pass over the
// same chunk of output rows; backward produces dX, dW, db in one sweep from
// the saved output. Bit-identical to the unfused
// act(AddRowBroadcast(MatMul(x, w), b)) composition.
Var FusedLinear(Var x, Var w, Var b, Activation act);

// The forward half of FusedLinear, without a tape: out = act(x·w + b), w a
// borrowed row-major x.cols() × out->cols() buffer, b its bias row; out
// (x.rows() rows) is overwritten. FusedLinear runs exactly this, so a
// tape-free forward on it equals the tape forward bit for bit, at any
// thread count.
void FusedLinearForward(const Matrix& x, const double* w, const double* b,
                        Activation act, Matrix* out);

// Mean squared error restricted to entries where weight==1 (mask); weight is
// a constant matrix of the same shape. Divides by the weight sum.
Var WeightedMseLoss(Var pred, Var target, Var weight);
// Binary cross entropy of probabilities `p` against labels, weighted; the
// GAIN discriminator objective. p is clamped to (eps, 1-eps).
Var WeightedBceLoss(Var p, Var labels, Var weight);

// Injects an externally computed scalar value whose gradient w.r.t. `input`
// is supplied by `grad_fn` (evaluated lazily at backward time, scaled by the
// incoming gradient). Used by the MS-divergence loss.
Var CustomScalarOp(Var input, double value,
                   std::function<Matrix()> grad_fn);

class SparseMatrix;  // tensor/sparse.h

// y = A x for a constant sparse A (no gradient into A); the GCN
// message-passing step in the GINN generator. The backward closure shares
// ownership of `a`, so it outlives the caller's handle until the tape is
// cleared.
Var SparseMatMul(std::shared_ptr<const SparseMatrix> a, Var x);

}  // namespace scis

#endif  // SCIS_AUTODIFF_TAPE_H_
