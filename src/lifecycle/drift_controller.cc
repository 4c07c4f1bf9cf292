#include "lifecycle/drift_controller.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "data/normalizer.h"
#include "lifecycle/model_rebuild.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace scis::lifecycle {

namespace {

struct DriftMetrics {
  obs::Counter* checks;
  obs::Counter* drifts;
  obs::Counter* retrains;
  obs::Counter* publish_failures;
  obs::Gauge* confidence;
  obs::Gauge* n_star;
  obs::Gauge* drift;
  obs::Gauge* trained_rows;
  obs::Gauge* total_rows;

  static DriftMetrics& Get() {
    static DriftMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return DriftMetrics{r.GetCounter("lifecycle.checks"),
                          r.GetCounter("lifecycle.drifts"),
                          r.GetCounter("lifecycle.retrains"),
                          r.GetCounter("lifecycle.publish_failures"),
                          r.GetGauge("lifecycle.confidence"),
                          r.GetGauge("lifecycle.n_star"),
                          r.GetGauge("lifecycle.drift"),
                          r.GetGauge("lifecycle.trained_rows"),
                          r.GetGauge("lifecycle.total_rows")};
    }();
    return m;
  }
};

}  // namespace

Result<std::unique_ptr<DriftController>> DriftController::Create(
    std::shared_ptr<SampleStore> store, const Checkpoint& ckpt,
    PublishFn publish, DriftControllerOptions opts) {
  if (store == nullptr) {
    return Status::InvalidArgument("drift controller needs a sample store");
  }
  if (Status st = ValidateSseOptions(opts.sse); !st.ok()) return st;
  if (opts.min_rows < 4) {
    return Status::InvalidArgument("min_rows must be >= 4");
  }
  if (opts.reservoir_rows < 2) {
    return Status::InvalidArgument("reservoir_rows must be >= 2");
  }
  if (ckpt.meta.columns.size() != store->cols()) {
    return Status::InvalidArgument(
        "checkpoint serves " + std::to_string(ckpt.meta.columns.size()) +
        " columns but the sample store holds " +
        std::to_string(store->cols()));
  }
  Result<std::unique_ptr<GenerativeImputer>> model =
      RebuildTrainableModel(ckpt, opts.seed);
  if (!model.ok()) return model.status();

  auto ctl = std::unique_ptr<DriftController>(new DriftController());
  ctl->opts_ = opts;
  ctl->store_ = std::move(store);
  ctl->meta_ = ckpt.meta;
  ctl->model_ = std::move(*model);
  ctl->trainer_ = std::make_unique<DimTrainer>(opts.retrain);
  ctl->publish_ = std::move(publish);
  ctl->trained_rows_ =
      opts.initial_trained_rows > 0 ? opts.initial_trained_rows
                                    : opts.min_rows;
  return ctl;
}

DriftController::~DriftController() { Stop(); }

Result<DriftController::CheckOutcome> DriftController::RunCheck() {
  SCIS_TRACE_SPAN("lifecycle.check");
  std::lock_guard<std::mutex> lock(mu_);
  DriftMetrics& metrics = DriftMetrics::Get();
  metrics.checks->Add();

  CheckOutcome out;
  out.trained_rows = trained_rows_;
  const size_t retained = store_->num_rows();
  out.total_rows = store_->total_rows();
  metrics.total_rows->Set(static_cast<double>(out.total_rows));
  metrics.trained_rows->Set(static_cast<double>(trained_rows_));
  if (retained < opts_.min_rows) {
    last_ = out;
    return out;
  }
  out.checked = true;

  // Replay the store into one raw matrix (deterministic order).
  const size_t d = store_->cols();
  Matrix raw(retained, d);
  size_t at = 0;
  Status st = store_->Replay([&](const Matrix& rec) {
    const size_t take =
        std::min(rec.rows(), raw.rows() > at ? raw.rows() - at : 0);
    if (take > 0) {
      std::memcpy(raw.row_data(at), rec.data(),
                  take * d * sizeof(double));
      at += take;
    }
  });
  if (!st.ok()) return st;
  if (at != retained) {
    return Status::Internal("store replayed " + std::to_string(at) +
                            " rows, expected " + std::to_string(retained));
  }

  // Raw rows (NaN = missing) -> masked dataset -> the serving normalizer's
  // [0,1] space, so the SSE estimate runs where Theorem 1's constants hold.
  Matrix values = raw;
  Matrix mask(retained, d);
  for (size_t k = 0; k < values.size(); ++k) {
    if (std::isnan(values.data()[k])) {
      values.data()[k] = 0.0;
      mask.data()[k] = 0.0;
    } else {
      mask.data()[k] = 1.0;
    }
  }
  Dataset ds("lifecycle", std::move(values), std::move(mask),
             serve::ColumnsFromMeta(meta_));
  Result<MinMaxNormalizer> norm =
      MinMaxNormalizer::FromStats(meta_.norm_lo, meta_.norm_hi);
  if (!norm.ok()) return norm.status();
  const Dataset all = norm->Transform(ds);

  // Deterministic validation reservoir: a pure function of the store state
  // (seed ⊕ N), so every replayed loop draws the same rows.
  std::vector<size_t> idx;
  if (retained <= opts_.reservoir_rows) {
    idx.resize(retained);
    std::iota(idx.begin(), idx.end(), size_t{0});
  } else {
    Rng r(opts_.seed ^ (0x9E3779B97F4A7C15ull * out.total_rows));
    idx = r.SampleWithoutReplacement(retained, opts_.reservoir_rows);
    std::sort(idx.begin(), idx.end());
  }
  const Dataset validation = all.GatherRows(idx);
  const Matrix validation_raw = raw.GatherRows(idx);

  const size_t n0 =
      std::max<size_t>(1, std::min(trained_rows_, out.total_rows));
  SseEstimator est(opts_.sse);
  if (Status pst = est.Prepare(*model_, all); !pst.ok()) return pst;
  out.confidence =
      est.ProbabilityAt(*model_, validation, n0, n0, out.total_rows);
  metrics.confidence->Set(out.confidence);
  out.drifted = out.confidence < 1.0 - opts_.sse.alpha;
  metrics.drift->Set(out.drifted ? 1.0 : 0.0);

  if (out.drifted) {
    metrics.drifts->Add();
    Result<SseResult> sse =
        est.EstimateMinimumSize(*model_, out.total_rows, validation, n0);
    if (!sse.ok()) return sse.status();
    out.n_star = sse->n_star;
    metrics.n_star->Set(static_cast<double>(out.n_star));

    // Retrain on the most recent min(n*, retained, cap) rows — the SSE
    // answer bounded by what the sliding window still holds and the
    // configured budget.
    size_t n_train = std::min(out.n_star, retained);
    if (opts_.retrain_cap_rows > 0) {
      n_train = std::min(n_train, opts_.retrain_cap_rows);
    }
    n_train = std::max<size_t>(n_train, std::min(retained, opts_.min_rows));
    std::vector<size_t> tail(n_train);
    std::iota(tail.begin(), tail.end(), retained - n_train);
    const Dataset train = all.GatherRows(tail);
    if (Status tst = trainer_->Train(*model_, train); !tst.ok()) return tst;
    out.retrained = true;
    metrics.retrains->Add();
    trained_rows_ = n_train;
    metrics.trained_rows->Set(static_cast<double>(trained_rows_));

    if (publish_) {
      Status pub =
          publish_(model_->generator_params(), meta_, validation_raw);
      if (pub.ok()) {
        out.published = true;
      } else {
        metrics.publish_failures->Add();
        last_ = out;
        return pub;
      }
    }
  }
  last_ = out;
  return out;
}

void DriftController::Start() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (loop_.joinable()) return;
  loop_stop_ = false;
  loop_ = std::thread([this] { Loop(); });
}

void DriftController::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!loop_.joinable()) return;
    loop_stop_ = true;
  }
  loop_cv_.notify_all();
  loop_.join();
}

void DriftController::Loop() {
  std::unique_lock<std::mutex> lock(loop_mu_);
  const auto interval = std::chrono::duration<double, std::milli>(
      std::max(1.0, opts_.check_interval_ms));
  while (!loop_stop_) {
    loop_cv_.wait_for(lock, interval, [this] { return loop_stop_; });
    if (loop_stop_) return;
    lock.unlock();
    Result<CheckOutcome> r = RunCheck();
    if (!r.ok()) {
      SCIS_LOG(Warning) << "lifecycle check failed: "
                        << r.status().ToString();
    }
    lock.lock();
  }
}

DriftController::CheckOutcome DriftController::last_outcome() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

size_t DriftController::trained_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trained_rows_;
}

}  // namespace scis::lifecycle
