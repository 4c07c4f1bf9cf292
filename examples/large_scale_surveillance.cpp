// Large-scale scenario from the paper's introduction: a COVID-19 case
// surveillance table (paper: 22.5M rows x 7 clinical/symptom features,
// 47.6% missing) where full-data GAN training is infeasible and SCIS's
// sample-size estimation is the point.
//
// This example trains GAIN both ways on a Surveil-shaped dataset —
// (a) conventional full-data adversarial training, and (b) SCIS — and
// contrasts wall-clock time, training sample rate R_t, and RMSE, i.e. a
// single-dataset preview of Table IV.
//
// Run with a larger --scale to push the contrast further.
#include <cstdio>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/scis.h"
#include "data/covid_synth.h"
#include "data/missingness.h"
#include "data/normalizer.h"
#include "eval/metrics.h"
#include "models/gain_imputer.h"

using namespace scis;

int main(int argc, char** argv) {
  double scale = 0.002;  // 22.5M * 0.002 = ~45k rows
  long long epochs = 10;
  FlagParser flags;
  flags.AddDouble("scale", &scale, "row-count multiplier vs the paper");
  flags.AddInt("epochs", &epochs, "training epochs for both arms");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }

  SyntheticSpec spec = SurveilSpec(scale);
  LabeledDataset gen = GenerateSynthetic(spec);
  std::printf("Surveil-shaped dataset: %zu rows x %zu cols, %.1f%% missing\n",
              gen.incomplete.num_rows(), gen.incomplete.num_cols(),
              100.0 * gen.incomplete.MissingRate());

  Rng rng(11);
  HoldOut holdout = MakeHoldOut(gen.incomplete, 0.2, rng);
  MinMaxNormalizer norm;
  Dataset train = norm.FitTransform(holdout.train);
  Matrix truth(train.num_rows(), train.num_cols());
  for (size_t i = 0; i < truth.rows(); ++i)
    for (size_t j = 0; j < truth.cols(); ++j)
      if (holdout.eval_mask(i, j) == 1.0)
        truth(i, j) = (holdout.truth(i, j) - norm.lo()[j]) /
                      (norm.hi()[j] - norm.lo()[j]);

  // --- arm 1: conventional GAIN over the full dataset ---
  {
    GainImputerOptions o;
    o.deep.epochs = static_cast<int>(epochs);
    GainImputer gain(o);
    Stopwatch watch;
    if (!gain.Fit(train).ok()) return 1;
    const double secs = watch.ElapsedSeconds();
    const double rmse = MaskedRmse(gain.Impute(train), truth,
                                   holdout.eval_mask);
    std::printf("GAIN       rmse=%.4f  time=%7.2fs  R_t=100.00%%\n", rmse,
                secs);
  }

  // --- arm 2: SCIS-GAIN (DIM + SSE) ---
  {
    GainImputerOptions o;
    o.deep.epochs = 1;
    GainImputer gain(o);
    ScisOptions opts;
    opts.validation_size = 1000;
    // §VI: n0 = 20,000 for Surveil at full size; keep the same fraction.
    opts.initial_size = std::max<size_t>(
        500, static_cast<size_t>(20000.0 * scale * 22507139.0 / 22507139.0));
    opts.dim.epochs = static_cast<int>(epochs);
    opts.dim.lambda = 130.0;
    opts.sse.epsilon = 0.001;
    Scis scis(opts);
    Stopwatch watch;
    Result<Matrix> imputed = scis.Run(gain, train);
    if (!imputed.ok()) {
      std::printf("SCIS failed: %s\n", imputed.status().ToString().c_str());
      return 1;
    }
    const double secs = watch.ElapsedSeconds();
    const double rmse = MaskedRmse(*imputed, truth, holdout.eval_mask);
    const ScisReport& rep = scis.report();
    std::printf(
        "SCIS-GAIN  rmse=%.4f  time=%7.2fs  R_t=%6.2f%%  (n*=%zu, SSE "
        "%.2fs)\n",
        rmse, secs, 100.0 * rep.training_sample_rate, rep.n_star,
        rep.sse_seconds);
  }
  return 0;
}
