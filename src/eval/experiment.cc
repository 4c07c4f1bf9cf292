#include "eval/experiment.h"

#include "common/stopwatch.h"
#include "models/baran_imputer.h"
#include "models/gain_imputer.h"
#include "models/ginn_imputer.h"
#include "models/knn_imputer.h"
#include "models/mean_imputer.h"
#include "models/median_imputer.h"
#include "models/mice_imputer.h"
#include "models/midae_imputer.h"
#include "models/missforest_imputer.h"
#include "models/mlp_imputer.h"
#include "models/rrsi_imputer.h"
#include "models/vae_imputers.h"
#include "models/xgb_imputer.h"

namespace scis {

PreparedData PrepareData(const SyntheticSpec& spec, double holdout_fraction,
                         double extra_missing_rate, uint64_t seed) {
  SyntheticSpec s = spec;
  s.seed = spec.seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  LabeledDataset gen = GenerateSynthetic(s);
  Rng rng(seed + 1);
  Dataset incomplete = gen.incomplete;
  if (extra_missing_rate > 0.0) {
    incomplete = InjectMcar(incomplete, extra_missing_rate, rng);
  }
  HoldOut holdout = MakeHoldOut(incomplete, holdout_fraction, rng);

  // Normalize train and the ground truth with the same observed min/max.
  MinMaxNormalizer norm;
  PreparedData out;
  out.spec = s;
  out.train = norm.FitTransform(holdout.train);
  out.eval_mask = holdout.eval_mask;
  out.truth = Matrix(holdout.truth.rows(), holdout.truth.cols());
  for (size_t i = 0; i < out.truth.rows(); ++i) {
    for (size_t j = 0; j < out.truth.cols(); ++j) {
      if (holdout.eval_mask(i, j) == 1.0) {
        const double lo = norm.lo()[j], hi = norm.hi()[j];
        out.truth(i, j) = (holdout.truth(i, j) - lo) / (hi - lo);
      }
    }
  }
  out.labels = gen.labels;
  out.task = s.task;
  return out;
}

Result<std::unique_ptr<Imputer>> MakeImputer(const std::string& name,
                                             int epochs, uint64_t seed) {
  DeepOptions deep;
  deep.epochs = epochs;
  deep.seed = seed;
  if (name == "Mean") return std::unique_ptr<Imputer>(new MeanImputer());
  if (name == "Median") return std::unique_ptr<Imputer>(new MedianImputer());
  if (name == "KNN") return std::unique_ptr<Imputer>(new KnnImputer());
  if (name == "MICE") return std::unique_ptr<Imputer>(new MiceImputer());
  if (name == "MissF") {
    MissForestImputerOptions o;
    o.forest.seed = seed;
    return std::unique_ptr<Imputer>(new MissForestImputer(o));
  }
  if (name == "Baran") {
    BaranImputerOptions o;
    o.gbdt.seed = seed;
    return std::unique_ptr<Imputer>(new BaranImputer(o));
  }
  if (name == "XGBI") {
    XgbImputerOptions o;
    o.xgb.seed = seed;
    return std::unique_ptr<Imputer>(new XgbImputer(o));
  }
  if (name == "DataWig") {
    MlpImputerOptions o;
    o.deep = deep;
    return std::unique_ptr<Imputer>(new MlpImputer(o));
  }
  if (name == "RRSI") {
    RrsiImputerOptions o;
    o.seed = seed;
    // RRSI counts "iterations" rather than epochs; scale comparably.
    o.iterations = std::max(50, epochs * 5);
    return std::unique_ptr<Imputer>(new RrsiImputer(o));
  }
  if (name == "MIDAE") {
    MidaeImputerOptions o;
    o.deep = deep;
    return std::unique_ptr<Imputer>(new MidaeImputer(o));
  }
  if (name == "VAEI") {
    VaeImputerOptions o;
    o.deep = deep;
    return std::unique_ptr<Imputer>(new VaeiImputer(o));
  }
  if (name == "MIWAE") {
    MiwaeImputerOptions o;
    o.deep = deep;
    return std::unique_ptr<Imputer>(new MiwaeImputer(o));
  }
  if (name == "EDDI") {
    EddiImputerOptions o;
    o.deep = deep;
    return std::unique_ptr<Imputer>(new EddiImputer(o));
  }
  if (name == "HIVAE") {
    HivaeImputerOptions o;
    o.deep = deep;
    return std::unique_ptr<Imputer>(new HivaeImputer(o));
  }
  if (name == "GAIN") {
    GainImputerOptions o;
    o.deep = deep;
    return std::unique_ptr<Imputer>(new GainImputer(o));
  }
  if (name == "GINN") {
    GinnImputerOptions o;
    o.deep = deep;
    // GINN takes one full-batch generator step per "epoch"; scale so its
    // optimization budget is comparable to the mini-batch models.
    o.deep.epochs = epochs * 10;
    return std::unique_ptr<Imputer>(new GinnImputer(o));
  }
  return Status::NotFound("unknown imputer: " + name);
}

std::vector<std::string> KnownImputerNames() {
  return {"Mean",  "Median", "KNN",   "MICE", "MissF", "Baran", "XGBI",
          "DataWig", "RRSI",  "MIDAE", "VAEI", "MIWAE", "EDDI",  "HIVAE",
          "GINN",    "GAIN"};
}

bool IsGenerativeName(const std::string& name) {
  return name == "GAIN" || name == "GINN";
}

Result<std::unique_ptr<GenerativeImputer>> MakeGenerativeImputer(
    const std::string& name, uint64_t seed) {
  if (name == "GAIN") {
    GainImputerOptions o;
    o.deep.epochs = 1;
    o.deep.seed = seed;
    return std::unique_ptr<GenerativeImputer>(new GainImputer(o));
  }
  if (name == "GINN") {
    GinnImputerOptions o;
    o.deep.epochs = 1;
    o.deep.seed = seed;
    return std::unique_ptr<GenerativeImputer>(new GinnImputer(o));
  }
  return Status::NotFound("not a GAN-based imputer: " + name);
}

namespace {
MethodResult Finish(MethodResult r, const Imputer& imputer,
                    const PreparedData& prep) {
  Matrix imputed = imputer.Impute(prep.train);
  r.rmse = MaskedRmse(imputed, prep.truth, prep.eval_mask);
  return r;
}
}  // namespace

MethodResult RunPlain(Imputer& imputer, const PreparedData& prep) {
  MethodResult r;
  r.method = imputer.name();
  r.dataset = prep.spec.name;
  Stopwatch watch;
  Status st = imputer.Fit(prep.train);
  r.seconds = watch.ElapsedSeconds();
  if (!st.ok()) {
    r.finished = false;
    return r;
  }
  return Finish(std::move(r), imputer, prep);
}

MethodResult RunScis(GenerativeImputer& model, const ScisOptions& opts,
                     const PreparedData& prep) {
  MethodResult r;
  r.method = "SCIS-" + model.name();
  r.dataset = prep.spec.name;
  Scis scis(opts);
  Stopwatch watch;
  Result<Matrix> imputed = scis.Run(model, prep.train);
  r.seconds = watch.ElapsedSeconds();
  if (!imputed.ok()) {
    r.finished = false;
    return r;
  }
  r.sample_rate = 100.0 * scis.report().training_sample_rate;
  r.sse_seconds = scis.report().sse_seconds;
  r.n_star = scis.report().n_star;
  r.rmse = MaskedRmse(imputed.value(), prep.truth, prep.eval_mask);
  return r;
}

MethodResult RunDim(GenerativeImputer& model, const DimOptions& opts,
                    const PreparedData& prep) {
  MethodResult r;
  r.method = "DIM-" + model.name();
  r.dataset = prep.spec.name;
  DimTrainer dim(opts);
  Stopwatch watch;
  Status st = dim.Train(model, prep.train);
  r.seconds = watch.ElapsedSeconds();
  if (!st.ok()) {
    r.finished = false;
    return r;
  }
  return Finish(std::move(r), model, prep);
}

MethodResult RunFixedDim(GenerativeImputer& model, const DimOptions& opts,
                         double fraction, const PreparedData& prep) {
  MethodResult r;
  r.method = "Fixed-DIM-" + model.name();
  r.dataset = prep.spec.name;
  r.sample_rate = 100.0 * fraction;
  Rng rng(opts.seed + 99);
  const size_t n = prep.train.num_rows();
  const size_t k = std::max<size_t>(
      2, static_cast<size_t>(fraction * static_cast<double>(n)));
  Dataset subset =
      prep.train.GatherRows(rng.SampleWithoutReplacement(n, k));
  DimTrainer dim(opts);
  Stopwatch watch;
  Status st = dim.Train(model, subset);
  r.seconds = watch.ElapsedSeconds();
  if (!st.ok()) {
    r.finished = false;
    return r;
  }
  return Finish(std::move(r), model, prep);
}

AggregateResult Repeat(
    int repeats, const std::function<MethodResult(uint64_t seed)>& fn) {
  std::vector<double> rmse, secs, rate, sse;
  for (int i = 0; i < repeats; ++i) {
    MethodResult r = fn(1000 + 17 * static_cast<uint64_t>(i));
    if (!r.finished) continue;
    rmse.push_back(r.rmse);
    secs.push_back(r.seconds);
    rate.push_back(r.sample_rate);
    sse.push_back(r.sse_seconds);
  }
  AggregateResult out;
  out.rmse = Summarize(rmse);
  out.seconds = Summarize(secs);
  out.sample_rate = Summarize(rate);
  out.sse_seconds = Summarize(sse);
  return out;
}

}  // namespace scis
