#include "eval/downstream.h"

#include <algorithm>

#include "data/sampler.h"
#include "eval/metrics.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace scis {

DownstreamResult EvaluateDownstream(const Matrix& imputed,
                                    const std::vector<double>& labels,
                                    TaskKind task,
                                    const DownstreamOptions& opts) {
  SCIS_CHECK_EQ(imputed.rows(), labels.size());
  const size_t n = imputed.rows(), d = imputed.cols();
  Rng rng(opts.seed);

  // Row split.
  const size_t ntest =
      std::max<size_t>(1, static_cast<size_t>(opts.test_fraction *
                                              static_cast<double>(n)));
  ValidationSplit split = SplitValidation(n, ntest, rng);

  // Label scale for stable regression training.
  double label_lo = labels[0], label_hi = labels[0];
  for (double y : labels) {
    label_lo = std::min(label_lo, y);
    label_hi = std::max(label_hi, y);
  }
  const double span = std::max(label_hi - label_lo, 1e-9);
  auto norm_label = [&](double y) { return (y - label_lo) / span; };

  // §VI-D: three fully-connected layers.
  ParamStore store;
  Mlp net(&store, "downstream", std::vector<size_t>{d, opts.hidden,
                                                    opts.hidden, 1},
          Activation::kRelu,
          task == TaskKind::kClassification ? Activation::kSigmoid
                                            : Activation::kSigmoid,
          rng);
  Adam adam(opts.learning_rate);

  MiniBatcher batcher(split.rest.size(), opts.batch_size, rng);
  std::vector<size_t> batch;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    batcher.Reset(rng);
    while (batcher.Next(&batch)) {
      Matrix x(batch.size(), d);
      Matrix y(batch.size(), 1);
      for (size_t r = 0; r < batch.size(); ++r) {
        const size_t row = split.rest[batch[r]];
        std::copy(imputed.row_data(row), imputed.row_data(row) + d,
                  x.row_data(r));
        y(r, 0) = task == TaskKind::kClassification ? labels[row]
                                                    : norm_label(labels[row]);
      }
      Tape tape;
      Var xin = tape.Constant(std::move(x));
      Var pred = net.ForwardDropout(tape, xin, opts.dropout, rng);
      Var target = tape.Constant(std::move(y));
      Var ones = tape.Constant(Matrix::Ones(batch.size(), 1));
      Var loss = task == TaskKind::kClassification
                     ? WeightedBceLoss(pred, target, ones)
                     : WeightedMseLoss(pred, target, ones);
      tape.Backward(loss);
      adam.Step(store, store.CollectGrads());
    }
  }

  // Score on the held-out rows.
  Matrix xtest(split.validation.size(), d);
  for (size_t r = 0; r < split.validation.size(); ++r) {
    const size_t row = split.validation[r];
    std::copy(imputed.row_data(row), imputed.row_data(row) + d,
              xtest.row_data(r));
  }
  const Matrix pred = net.Infer(xtest);
  DownstreamResult out;
  out.task = task;
  std::vector<double> scores(split.validation.size());
  std::vector<double> truth(split.validation.size());
  for (size_t r = 0; r < split.validation.size(); ++r) {
    scores[r] = pred(r, 0);
    truth[r] = labels[split.validation[r]];
  }
  if (task == TaskKind::kClassification) {
    out.auc = Auc(scores, truth);
  } else {
    for (double& s : scores) s = label_lo + s * span;  // back to label units
    out.mae = Mae(scores, truth);
  }
  return out;
}

}  // namespace scis
