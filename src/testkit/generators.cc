#include "testkit/generators.h"

#include <sstream>

#include "data/missingness.h"

namespace scis::testkit {

Matrix GenMatrix(Rng& rng, const MatrixGen& g) {
  SCIS_CHECK(g.min_rows >= 1 && g.max_rows >= g.min_rows);
  SCIS_CHECK(g.min_cols >= 1 && g.max_cols >= g.min_cols);
  const size_t rows =
      g.min_rows + rng.UniformIndex(g.max_rows - g.min_rows + 1);
  const size_t cols =
      g.min_cols + rng.UniformIndex(g.max_cols - g.min_cols + 1);
  return g.gaussian ? rng.NormalMatrix(rows, cols, 0.0, g.stddev)
                    : rng.UniformMatrix(rows, cols, g.lo, g.hi);
}

Matrix GenMask(Rng& rng, const Matrix& values, MaskMechanism mechanism,
               double missing_rate) {
  Dataset complete = Dataset::Complete("mask_gen", values);
  switch (mechanism) {
    case MaskMechanism::kMar:
      if (values.cols() >= 2) {
        return InjectMar(complete, missing_rate, /*amp=*/3.0, rng).mask();
      }
      break;  // needs a pivot column; fall back to MCAR
    case MaskMechanism::kMnar:
      return InjectMnar(complete, missing_rate, /*sharpness=*/4.0, rng).mask();
    case MaskMechanism::kMcar:
      break;
  }
  return InjectMcar(complete, missing_rate, rng).mask();
}

Dataset GenDataset(Rng& rng, const DatasetGen& g) {
  SCIS_CHECK(g.min_rows >= 1 && g.max_rows >= g.min_rows);
  SCIS_CHECK(g.min_cols >= 1 && g.max_cols >= g.min_cols);
  size_t rows = g.min_rows + rng.UniformIndex(g.max_rows - g.min_rows + 1);
  size_t cols = g.min_cols + rng.UniformIndex(g.max_cols - g.min_cols + 1);
  double rate = rng.Uniform(g.min_missing, g.max_missing);

  enum Edge { kNone, kSingleColumn, kEmptyRow, kAllObserved };
  Edge edge = kNone;
  if (rng.Bernoulli(g.edge_case_prob)) {
    edge = static_cast<Edge>(1 + rng.UniformIndex(3));
  }
  if (edge == kSingleColumn) cols = 1;
  if (edge == kAllObserved) rate = 0.0;

  Matrix values = rng.UniformMatrix(rows, cols, g.lo, g.hi);
  Matrix mask = GenMask(rng, values, g.mechanism, rate);
  if (edge == kEmptyRow) {
    const size_t r = rng.UniformIndex(rows);
    for (size_t j = 0; j < cols; ++j) mask(r, j) = 0.0;
  }
  // Library convention: missing cells hold zero.
  for (size_t k = 0; k < values.size(); ++k) {
    if (mask[k] == 0.0) values[k] = 0.0;
  }
  return Dataset("gen", std::move(values), std::move(mask),
                 NumericColumns(cols));
}

std::string MlpConfig::ToString() const {
  std::ostringstream oss;
  oss << "dims={";
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i) oss << ",";
    oss << dims[i];
  }
  oss << "} hidden_act=" << static_cast<int>(hidden_act)
      << " out_act=" << static_cast<int>(out_act) << " init_seed=" << init_seed;
  return oss.str();
}

MlpConfig GenMlpConfig(Rng& rng, size_t in_dim, size_t out_dim) {
  MlpConfig config;
  config.dims.push_back(in_dim);
  const size_t hidden_layers = rng.UniformIndex(3);  // 0, 1, or 2
  for (size_t l = 0; l < hidden_layers; ++l) {
    config.dims.push_back(2 + rng.UniformIndex(7));  // width 2..8
  }
  config.dims.push_back(out_dim);
  // Smooth activations only, so finite-difference oracles stay reliable
  // (relu kinks break central differences).
  const Activation smooth[] = {Activation::kSigmoid, Activation::kTanh};
  config.hidden_act = smooth[rng.UniformIndex(2)];
  config.out_act =
      rng.Bernoulli(0.5) ? Activation::kSigmoid : Activation::kNone;
  config.init_seed = rng.NextU64();
  return config;
}

std::unique_ptr<Mlp> BuildMlp(ParamStore* store, const std::string& name,
                              const MlpConfig& config) {
  Rng init_rng(config.init_seed);
  return std::make_unique<Mlp>(store, name, config.dims, config.hidden_act,
                               config.out_act, init_rng);
}

}  // namespace scis::testkit
