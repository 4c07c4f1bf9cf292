// Golden end-to-end regression: full SCIS runs (Algorithm 1 — DIM train,
// SSE, retrain, impute) on three small Table-II-shaped fixtures, compared
// byte-for-byte against checked-in goldens. Every knob is seeded and the
// runtime is thread-count invariant, so the artifact is bit-exact across
// machines and reruns; regenerate deliberately with SCIS_UPDATE_GOLDENS=1
// (see TESTING.md). Wall-clock fields never enter the artifact — the run
// report contributes only its JSON *shape*.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "core/scis.h"
#include "data/covid_synth.h"
#include "eval/downstream.h"
#include "eval/metrics.h"
#include "models/gain_imputer.h"
#include "obs/run_report.h"
#include "testkit/gtest_glue.h"

namespace scis {
namespace {

struct GoldenFixture {
  std::string name;     // golden file stem
  SyntheticSpec spec;   // Table-II-shaped, scaled to seconds of CPU
};

// Tiny stand-ins for the Trial / Emergency / Response shapes: the row and
// column counts are scaled down but the missing rate, column-type mix, and
// downstream task kind of Table II are preserved.
GoldenFixture TrialFixture() {
  SyntheticSpec spec;
  spec.name = "trial-tiny";
  spec.rows = 160;
  spec.cols = 9;
  spec.missing_rate = 0.0963;
  spec.task = TaskKind::kClassification;
  spec.seed = 71;
  return {"e2e_trial.txt", spec};
}

GoldenFixture EmergencyFixture() {
  SyntheticSpec spec;
  spec.name = "emergency-tiny";
  spec.rows = 180;
  spec.cols = 12;
  spec.missing_rate = 0.45;
  spec.binary_fraction = 0.5;
  spec.task = TaskKind::kRegression;
  spec.seed = 72;
  return {"e2e_emergency.txt", spec};
}

GoldenFixture ResponseFixture() {
  SyntheticSpec spec;
  spec.name = "response-tiny";
  spec.rows = 200;
  spec.cols = 10;
  spec.missing_rate = 0.0566;
  spec.task = TaskKind::kRegression;
  spec.seed = 73;
  return {"e2e_response.txt", spec};
}

// SCIS options scaled so one fixture runs in a couple of seconds while
// still exercising every Algorithm-1 phase (initial DIM, SSE, retrain).
ScisOptions FastScisOptions() {
  ScisOptions opts;
  opts.validation_size = 32;
  opts.initial_size = 48;
  opts.dim.epochs = 4;
  opts.dim.batch_size = 32;
  opts.dim.sinkhorn_iters = 30;
  opts.dim.lambda = 10.0;
  opts.sse.lambda = 10.0;
  opts.sse.epsilon = 0.01;
  opts.sse.k = 6;
  opts.sse.curvature_batches = 2;
  opts.sse.curvature_batch_size = 32;
  opts.seed = 1234;
  return opts;
}

void RunFixture(const GoldenFixture& fixture) {
  const LabeledDataset data = GenerateSynthetic(fixture.spec);

  GainImputerOptions gopts;
  gopts.deep.seed = 51;
  GainImputer model(gopts);
  Scis scis(FastScisOptions());
  Result<Matrix> imputed = scis.Run(model, data.incomplete);
  ASSERT_TRUE(imputed.ok()) << imputed.status().message();

  // Impute-quality metrics on the cells the MCAR injection hid.
  Matrix eval_mask = data.incomplete.mask();
  for (size_t k = 0; k < eval_mask.size(); ++k) {
    eval_mask[k] = 1.0 - eval_mask[k];
  }
  const double rmse =
      MaskedRmse(imputed.value(), data.complete.values(), eval_mask);
  DownstreamOptions dopts;
  dopts.epochs = 8;
  const DownstreamResult downstream = EvaluateDownstream(
      imputed.value(), data.labels, fixture.spec.task, dopts);

  const ScisReport& report = scis.report();
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "fixture: " << fixture.spec.name << "\n"
      << "rows: " << data.incomplete.num_rows()
      << " cols: " << data.incomplete.num_cols() << "\n"
      << "missing_rate: " << data.incomplete.MissingRate() << "\n"
      << "rmse: " << rmse << "\n"
      << "n_star: " << report.n_star << "\n"
      << "training_sample_rate: " << report.training_sample_rate << "\n"
      << "sse_probability: " << report.sse_result.probability_at_n_star
      << "\n"
      << "sse_threshold: " << report.sse_result.threshold << "\n";
  if (fixture.spec.task == TaskKind::kClassification) {
    out << "downstream_auc: " << downstream.auc << "\n";
  } else {
    out << "downstream_mae: " << downstream.mae << "\n";
  }

  // Run-report structure (not values — timings are wall-clock). A default
  // MetricsSnapshot keeps the shape independent of test execution order,
  // which the process-global metrics registry is not.
  obs::RunReport run_report("golden_e2e");
  run_report.AddConfig("dataset", fixture.spec.name);
  run_report.AddConfig("rows", static_cast<int64_t>(fixture.spec.rows));
  run_report.AddPhase("dim_initial", report.dim_initial_seconds);
  run_report.AddPhase("sse", report.sse_seconds);
  run_report.AddPhase("dim_final", report.dim_final_seconds);
  run_report.AddSectionValue("result", "n_star",
                             static_cast<uint64_t>(report.n_star));
  run_report.AddSectionValue("result", "rmse", rmse);
  out << "report_shape:\n"
      << testkit::JsonShape(run_report.ToJson(obs::MetricsSnapshot{}));

  EXPECT_MATCHES_GOLDEN(fixture.name, out.str());
}

TEST(GoldenE2eTest, TrialShapedRunMatchesGolden) { RunFixture(TrialFixture()); }

TEST(GoldenE2eTest, EmergencyShapedRunMatchesGolden) {
  RunFixture(EmergencyFixture());
}

TEST(GoldenE2eTest, ResponseShapedRunMatchesGolden) {
  RunFixture(ResponseFixture());
}

}  // namespace
}  // namespace scis
