// perfbench — the measuring program behind `python3 perfbench/run.py`.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace-out <p>]
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   scis_weather  SCIS-GAIN Algorithm 1 (Scis::Run) on the Weather shape,
//                 repeated passes over random divisions
//   serve_bulk    closed-loop multi-row requests to a retrieval-augmented
//                 engine (AnnIndex built during setup)
// and two diagnostics that BENCHMARK.json does not list (METRICS.md says
// why):
//   scis_search   the same pipeline on the Search shape
//   serve_open    open-loop Poisson single-row requests over a rate ladder
//                 against an in-process ImputationServer (default options)
//
// Inputs are generated from the shape's table generator and --seed (see
// METRICS.md). Without --trace-out the program
// measures the end-to-end metrics for --seconds. With it, the first half of
// the window runs untraced and the second half traced (obs spans on,
// metrics registry reset), the trace is written to the given path, and the
// per-layer counters of the traced half are reported; run.py turns the
// spans into self times. Outputs are checked in every run: Algorithm-1
// digests across passes and at 1 vs 4 runtime threads, observed-cell
// pass-through, and served == ImputationEngine::ImputeBatch bit for bit.
//
// The last stdout line is one JSON object with the raw results.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <time.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/dim.h"
#include "core/scis.h"
#include "data/covid_synth.h"
#include "data/missingness.h"
#include "data/normalizer.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "index/ann_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/divergence.h"
#include "ot/masked_cost.h"
#include "ot/sinkhorn.h"
#include "runtime/runtime.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stats.h"

using namespace scis;
using perfbench::HistogramQuantile;
using perfbench::Percentile;
using perfbench::PoissonSchedule;

namespace {

// Setup is repeated and its median reported, so that one slow repetition
// does not decide setup_s.
constexpr int kSetupRepeats = 5;
// Random divisions per run. n* (and with it the pass time) moves with the
// division, so a run cycles through several, each at least kMinRounds
// times, and reports the median over the divisions of each one's median
// pass.
constexpr size_t kSearchDivisions = 2;
constexpr size_t kWeatherDivisions = 12;
constexpr size_t kMinRounds = 2;
// The determinism check runs Algorithm 1 on the first kCheckRows rows of a
// division at kCheckThreads runtime threads and at one.
constexpr int kCheckThreads = 4;
constexpr size_t kCheckRows = 2000;
// Load: one generator thread, at most nproc (4) connections.
constexpr size_t kConnections = 4;
// serve_open: Poisson rate ladder (requests/s), the rung whose latency is
// printed as req_p50/p90/p99_ms, and the p99
// limit that max_rate_rps is judged against (above the server's 2 ms flush
// deadline).
const std::vector<double> kOpenLadder = {1000, 2000, 4000, 8000, 16000};
constexpr double kOpenReferenceRate = 4000;
constexpr double kLatencyLimitMs = 10.0;
// A rung keeps up when at least this share of its requests completed by
// the rung's end (no growing backlog).
constexpr double kKeepUpShare = 0.98;
// Requests cycle through a pool of generated rows that the served model
// was not trained on: single rows on serve_open, kBulkRows-row frames on
// serve_bulk. A bulk frame fills a whole batch (max_batch_rows is 64), so
// with four connections the server always has the next batch queued and
// never waits on a wake-up between batches. The bulk pool is smaller
// because its expected replies cost a kNN search each (a full scan of the
// index for sparse Search rows).
constexpr size_t kOpenPoolRows = 4096;
constexpr size_t kBulkRows = 64;
constexpr size_t kBulkPoolRows = 1024;
// The served model: DIM-trained GAIN on the first rows of the division,
// which serve_bulk's index also holds. 1,000 Search rows (0.5 MB) stay in
// a core's 2 MB L2; a 4,000-row index did not, and its scans moved by
// +-20% with the neighbours' use of the shared L3.
constexpr size_t kServeTrainRows = 1000;
constexpr int kServeTrainEpochs = 3;
// How long the generator waits for outstanding replies after the last send.
constexpr double kDrainSeconds = 10.0;
// serve_bulk runs its closed loop in slices of this many seconds. A slice
// starts and ends with no request outstanding, so the server CPU time it
// records belongs to its own requests.
constexpr double kSliceSeconds = 1.0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Digest(const Matrix& m) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < m.size(); ++i) {
    h ^= std::bit_cast<uint64_t>(m.data()[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a.data()[i]) !=
        std::bit_cast<uint64_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

Matrix Rows(const Matrix& m, size_t begin, size_t end) {
  Matrix out(end - begin, m.cols());
  std::copy(m.data() + begin * m.cols(), m.data() + end * m.cols(),
            out.data());
  return out;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// ------------------------------------------------------- host speed ----
//
// The timed end-to-end metrics are CPU time, normalised for host speed.
// CPU time, because wall time also counts waiting for a CPU (run queue,
// hypervisor steal). Normalised, because on a shared host the same code
// runs up to 1.7x slower in CPU time too for 30-90 s at a time while
// neighbouring machines are busy (a fixed loop took 45 ms per unit in quiet
// phases and 78-90 ms in busy ones on the 4-vCPU Xeon host this benchmark
// was defined on). Each measured CPU time is divided by the CPU time of a
// fixed reference computation timed on the same thread right before and
// after it, and multiplied by kReferenceMs, the reference's time on a
// quiet core of that host: the result reads as CPU time on a quiet host.
// The reference is the benchmark's own code, so no change to src/ moves
// it; it mixes what the program spends its time on: a small dense
// product, exp/log, and squared distances. Raw CPU and wall figures are
// printed beside the metrics.
constexpr double kReferenceMs = 5.5;

// CPU seconds of the whole process (all threads) or of the calling thread.
double CpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

// Keeps the reference's result alive, so that it is computed.
volatile double reference_sink = 0.0;

// Thread CPU ms of one run of the reference computation.
double ReferenceOnceMs() {
  constexpr size_t kRows = 1000, kBatch = 128, kDim = 64;
  static const auto fill = [](size_t n, size_t mod) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i % mod) * 0.01;
    return v;
  };
  static const std::vector<double> table = fill(kRows * kDim, 97);
  static const std::vector<double> batch = fill(kBatch * kDim, 89);
  static const std::vector<double> weights = fill(kDim * kDim, 31);
  static std::vector<double> out(kBatch * kDim);
  const double c0 = ThreadCpuSeconds();
  double acc = 0.0;
  for (int rep = 0; rep < 4; ++rep) {  // batch x weights
    for (size_t i = 0; i < kBatch; ++i) {
      for (size_t j = 0; j < kDim; ++j) {
        double s = 0.0;
        for (size_t k = 0; k < kDim; ++k) {
          s += batch[i * kDim + k] * weights[k * kDim + j];
        }
        out[i * kDim + j] = s;
      }
    }
    acc += out[static_cast<size_t>(rep)];
  }
  for (size_t i = 0; i < 60000; ++i) {  // exp / log
    acc += std::exp(-out[i % out.size()] * 1e-2) +
           std::log1p(out[(i * 7) % out.size()]);
  }
  for (size_t r = 0; r < 48; ++r) {  // squared distances to the table
    for (size_t i = 0; i < kRows; ++i) {
      double s = 0.0;
      for (size_t j = 0; j < kDim; ++j) {
        const double d = table[i * kDim + j] - batch[r * kDim + j];
        s += d * d;
      }
      acc += s;
    }
  }
  reference_sink = acc;
  return (ThreadCpuSeconds() - c0) * 1e3;
}

// The median of five reference runs.
double ReferenceMs() {
  std::vector<double> v;
  for (int i = 0; i < 5; ++i) v.push_back(ReferenceOnceMs());
  return Median(v);
}

// The CPU cost of `fn` by the cumulative CPU clock `cpu`: raw seconds, and
// normalised ms (see above).
struct CpuCost {
  double seconds = 0.0;
  double norm_ms = 0.0;
};
template <typename Clock, typename Fn>
CpuCost MeasureCpu(Clock cpu, Fn fn) {
  const double ref0 = ReferenceMs();
  const double c0 = cpu();
  fn();
  CpuCost c;
  c.seconds = cpu() - c0;
  c.norm_ms = 1e3 * c.seconds * kReferenceMs / (0.5 * (ref0 + ReferenceMs()));
  return c;
}

// The raw result handed to run.py.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> e2e;     // end-to-end metrics
  std::map<std::string, double> layers;  // per-layer metrics (traced runs)
  std::map<std::string, double> info;    // context printed by run.py

  void Fail(const std::string& msg) {
    correct = false;
    if (errors.size() < 8) errors.push_back(msg);
  }

  std::string ToJson() const {
    auto str = [](const std::string& s) {
      std::string o = "\"";
      for (char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        o += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
      }
      return o + "\"";
    };
    auto obj = [&](const std::map<std::string, double>& m) {
      std::string o = "{";
      for (const auto& [k, v] : m) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        o += (o.size() > 1 ? "," : "") + str(k) + ":" + buf;
      }
      return o + "}";
    };
    std::string o = "{\"correct\":" + std::string(correct ? "true" : "false");
    o += ",\"attempted\":" + std::to_string(attempted);
    o += ",\"failed\":" + std::to_string(failed);
    o += ",\"errors\":[";
    for (size_t i = 0; i < errors.size(); ++i) {
      o += (i ? "," : "") + str(errors[i]);
    }
    o += "],\"e2e\":" + obj(e2e) + ",\"layers\":" + obj(layers) +
         ",\"info\":" + obj(info) + "}";
    return o;
  }
};

// Runs `fn` kSetupRepeats times and returns the median normalised CPU
// seconds; the state built by the last repetition is the one the workload
// uses. Raw medians go into `rep.info`.
template <typename Fn>
double TimedSetup(Fn fn, Report& rep) {
  std::vector<double> norm, cpu, wall;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Stopwatch w;
    const CpuCost c = MeasureCpu([] { return CpuSeconds(); }, fn);
    wall.push_back(w.ElapsedSeconds());
    cpu.push_back(c.seconds);
    norm.push_back(c.norm_ms / 1e3);
  }
  rep.info["setup_cpu_s"] = Median(cpu);
  rep.info["setup_wall_s"] = Median(wall);
  return Median(norm);
}

// num / den, or 0 when nothing was counted.
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One of the paper's random divisions of a shape's table: the table comes
// from the shape's own generator seed, `seed` draws the 20% hold-out of
// observed cells that serves as RMSE ground truth, and the rest is min-max
// normalized (the protocol of eval/experiment.h's PrepareData).
PreparedData Divide(const LabeledDataset& table, uint64_t seed) {
  Rng rng(seed);
  const HoldOut h = MakeHoldOut(table.incomplete, 0.2, rng);
  MinMaxNormalizer norm;
  PreparedData out;
  out.spec = table.spec;
  out.train = norm.FitTransform(h.train);
  out.eval_mask = h.eval_mask;
  out.truth = Matrix(h.truth.rows(), h.truth.cols());
  for (size_t i = 0; i < out.truth.rows(); ++i) {
    for (size_t j = 0; j < out.truth.cols(); ++j) {
      if (h.eval_mask(i, j) == 1.0) {
        out.truth(i, j) =
            (h.truth(i, j) - norm.lo()[j]) / (norm.hi()[j] - norm.lo()[j]);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- SCIS ----

ScisOptions PaperOptions() {
  // §VI hyper-parameters; n0 = 400 and Nv = 1000 as the table benches pick
  // for these CPU-sized shapes.
  ScisOptions o;
  o.validation_size = 1000;
  o.initial_size = 400;
  o.dim.epochs = 15;
  o.dim.lambda = 130.0;
  o.sse.epsilon = 0.001;
  o.sse.alpha = 0.05;
  o.sse.beta = 0.01;
  o.sse.k = 20;
  return o;
}

struct Pass {
  size_t division = 0;
  double seconds = 0.0;      // wall
  double cpu_seconds = 0.0;  // process CPU
  double norm_ms = 0.0;      // process CPU, normalised for host speed
  uint64_t digest = 0;
  double rmse = 0.0;
  ScisReport report;
  Matrix imputed;
};

Pass RunPass(const PreparedData& prep, uint64_t seed, Report& rep) {
  Pass p;
  ++rep.attempted;
  Result<std::unique_ptr<GenerativeImputer>> model =
      MakeGenerativeImputer("GAIN", seed);
  if (!model.ok()) {
    ++rep.failed;
    rep.Fail("model: " + model.status().ToString());
    return p;
  }
  Scis scis(PaperOptions());
  Result<Matrix> out = Status::Internal("not run");
  {
    const CpuCost c = MeasureCpu([] { return CpuSeconds(); }, [&] {
      SCIS_TRACE_SPAN("bench.scis_pass");
      Stopwatch w;
      out = scis.Run(**model, prep.train);
      p.seconds = w.ElapsedSeconds();
    });
    p.cpu_seconds = c.seconds;
    p.norm_ms = c.norm_ms;
  }
  if (!out.ok()) {
    ++rep.failed;
    rep.Fail("Scis::Run: " + out.status().ToString());
    return p;
  }
  p.imputed = std::move(out).value();
  p.digest = Digest(p.imputed);
  p.rmse = MaskedRmse(p.imputed, prep.truth, prep.eval_mask);
  p.report = scis.report();
  // Observed cells must pass through bit-exactly (Eq. 1).
  const Matrix& v = prep.train.values();
  const Matrix& m = prep.train.mask();
  for (size_t i = 0; i < v.size(); ++i) {
    if (m.data()[i] == 1.0 && std::bit_cast<uint64_t>(v.data()[i]) !=
                                  std::bit_cast<uint64_t>(
                                      p.imputed.data()[i])) {
      ++rep.failed;
      rep.Fail("observed cell changed at flat index " + std::to_string(i));
      break;
    }
  }
  return p;
}

// Median milliseconds of `fn` over `reps` calls, each inside span `name`.
template <typename Fn>
double TimeCallMs(const char* name, int reps, Fn fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    SCIS_TRACE_SPAN(name);
    Stopwatch w;
    fn();
    ms.push_back(w.ElapsedSeconds() * 1e3);
  }
  return Median(ms);
}

// The OT layer timed through its public calls on a 128-row batch of the
// workload (x, m) against the pass's imputed rows as X̄, with the options
// DimTrainer uses.
void TimeOtCalls(const PreparedData& prep, const Matrix& imputed,
                 Report& rep) {
  const size_t b = std::min<size_t>(128, prep.train.num_rows());
  const Matrix x = Rows(prep.train.values(), 0, b);
  const Matrix m = Rows(prep.train.mask(), 0, b);
  const Matrix xbar = Rows(imputed, 0, b);
  SinkhornOptions so;
  so.lambda = PaperOptions().dim.lambda;
  so.max_iters = PaperOptions().dim.sinkhorn_iters;
  so.tol = 1e-7;
  constexpr int kReps = 15;
  rep.layers["ot.masked_cost_ms"] =
      TimeCallMs("bench.ot.masked_cost", kReps,
                 [&] { (void)MaskedCostMatrix(xbar, m, x, m); });
  const SinkhornSolution sol = SolveSinkhornMasked(xbar, m, x, m, so);
  rep.layers["ot.grad_ms"] = TimeCallMs("bench.ot.grad", kReps, [&] {
    (void)MaskedOtGradWrtA(sol.plan, xbar, m, x, m);
    (void)MaskedOtGradWrtB(sol.plan, xbar, m, x, m);
  });
  rep.layers["ot.ms_div_train_ms"] =
      TimeCallMs("bench.ot.ms_div_train", kReps,
                 [&] { (void)MsDivergenceForTraining(xbar, x, m, so); });
}

void ReadScisCounters(const obs::MetricsSnapshot& s, double passes,
                      Report& rep) {
  const double solves = static_cast<double>(s.CounterOr("sinkhorn.solves"));
  rep.layers["ot.solves"] = Ratio(solves, passes);
  rep.layers["ot.iters_per_solve"] =
      Ratio(static_cast<double>(s.CounterOr("sinkhorn.iterations")), solves);
  rep.layers["ot.converged_ratio"] = Ratio(
      static_cast<double>(s.CounterOr("sinkhorn.converged_solves")), solves);
  rep.layers["core.dim_steps"] =
      Ratio(static_cast<double>(s.CounterOr("dim.steps")), passes);
  rep.layers["sse.probes"] =
      Ratio(static_cast<double>(s.CounterOr("sse.probes")), passes);
  rep.layers["autodiff.pool_misses"] =
      Ratio(static_cast<double>(s.CounterOr("tape.pool.misses")), passes);
}

// Algorithm 1 on the first kCheckRows rows of `prep`, at kCheckThreads
// runtime threads and then at one: the two imputed tables must be
// bit-identical. The small table runs the same code paths as the full one
// at a fraction of its cost.
void CheckThreadDeterminism(const PreparedData& prep, uint64_t seed,
                            Report& rep) {
  std::vector<size_t> idx(std::min(kCheckRows, prep.train.num_rows()));
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  PreparedData sub;
  sub.spec = prep.spec;
  sub.train = prep.train.GatherRows(idx);
  sub.truth = Rows(prep.truth, 0, idx.size());
  sub.eval_mask = Rows(prep.eval_mask, 0, idx.size());
  runtime::SetNumThreads(kCheckThreads);
  const Pass wide = RunPass(sub, seed, rep);
  runtime::SetNumThreads(1);
  const Pass one = RunPass(sub, seed, rep);
  if (wide.digest != one.digest) {
    ++rep.failed;
    rep.Fail("Algorithm-1 digest differs between 1 and " +
             std::to_string(kCheckThreads) + " runtime threads");
  }
}

// The median over the divisions of each division's median of `field`.
double DivisionMedian(const std::vector<Pass>& ps, size_t divisions,
                      double Pass::*field) {
  std::vector<std::vector<double>> by(divisions);
  for (const Pass& p : ps) by[p.division].push_back(p.*field);
  std::vector<double> medians;
  for (const std::vector<double>& v : by) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  return Median(medians);
}

void RunScisWorkload(const SyntheticSpec& spec, size_t divisions,
                     uint64_t seed, double seconds, bool traced, Report& rep) {
  std::vector<PreparedData> preps;
  std::vector<double> prepare_s;
  rep.e2e["setup_s"] = TimedSetup([&] {
    Stopwatch w;
    const LabeledDataset table = GenerateSynthetic(spec);
    preps.clear();
    for (size_t j = 0; j < divisions; ++j) {
      preps.push_back(Divide(table, seed * divisions + j));
    }
    prepare_s.push_back(w.ElapsedSeconds());
    // Models are built per pass (Scis::Run trains in place); build one
    // here so that setup covers their cost too.
    (void)MakeGenerativeImputer("GAIN", seed);
  }, rep);
  const double rows = static_cast<double>(preps[0].train.num_rows());
  // Also warms the allocator and caches before the timed passes.
  CheckThreadDeterminism(preps[0], seed * divisions, rep);

  // Every later pass of a division must reproduce its first pass's digest.
  struct First {
    bool seen = false;
    uint64_t digest = 0;
    double rmse = 0.0, n_star = 0.0;
  };
  std::vector<First> first(divisions);
  size_t next = 0;
  // Passes cycle through the divisions until `window` seconds have passed
  // and at least min_passes have run.
  auto run_window = [&](double window, size_t min_passes,
                        std::vector<Pass>* passes) {
    Stopwatch w;
    do {
      const size_t j = next++ % divisions;
      passes->push_back(RunPass(preps[j], seed * divisions + j, rep));
      Pass& p = passes->back();
      p.division = j;
      if (!first[j].seen) {
        first[j] = {true, p.digest, p.rmse, static_cast<double>(p.report.n_star)};
      } else if (p.digest != first[j].digest) {
        ++rep.failed;
        rep.Fail("Algorithm-1 digest differs between passes of one division");
      }
    } while (w.ElapsedSeconds() < window || passes->size() < min_passes);
  };

  std::vector<Pass> untraced, tracedp;
  run_window(traced ? seconds / 2 : seconds, kMinRounds * divisions, &untraced);
  if (traced) {
    obs::Registry::Global().Reset();
    obs::SetTraceEnabled(true);
    run_window(seconds / 2, 1, &tracedp);
    TimeOtCalls(preps[(next - 1) % divisions], tracedp.back().imputed, rep);
    obs::SetTraceEnabled(false);
    const double n = static_cast<double>(tracedp.size());
    ReadScisCounters(obs::Registry::Global().Snapshot(), n, rep);
    // The overhead compares traced and untraced passes of the same
    // divisions: n*, and so the pass time, differs between divisions.
    std::vector<std::vector<double>> by_division(divisions);
    for (const Pass& p : untraced) {
      by_division[p.division].push_back(p.norm_ms);
    }
    double sse = 0.0, steps = 0.0, nstar = 0.0, pass_s = 0.0, norm_ms = 0.0,
           untraced_ms = 0.0;
    for (const Pass& p : tracedp) {
      sse += p.report.sse_seconds;
      steps += p.report.sse_result.search_steps;
      nstar += static_cast<double>(p.report.n_star);
      pass_s += p.seconds;
      norm_ms += p.norm_ms;
      untraced_ms += Median(by_division[p.division]);
    }
    rep.layers["core.n_star"] = nstar / n;
    rep.layers["sse.search_steps"] = steps / n;
    rep.layers["data.prepare_s"] = Median(prepare_s);
    rep.layers["obs.trace_overhead_ratio"] = Ratio(norm_ms, untraced_ms);
    // Context for run.py's span arithmetic.
    rep.info["traced_passes"] = n;
    rep.info["traced_sse_seconds"] = sse;
    rep.info["traced_pass_seconds"] = pass_s;
    rep.info["rows"] = rows;
  }

  double rmse = 0.0, nstar = 0.0;
  for (const First& f : first) {
    rmse += f.rmse / static_cast<double>(divisions);
    nstar += f.n_star / static_cast<double>(divisions);
  }
  const double wall_s = DivisionMedian(untraced, divisions, &Pass::seconds);
  rep.e2e["norm_cpu_ms_per_op"] =
      DivisionMedian(untraced, divisions, &Pass::norm_ms);
  rep.e2e["rmse"] = rmse;
  rep.info["cpu_ms"] =
      1e3 * DivisionMedian(untraced, divisions, &Pass::cpu_seconds);
  rep.info["wall_ms"] = wall_s * 1e3;
  rep.info["rows_per_s"] = Ratio(rows, wall_s);
  rep.info["passes"] = static_cast<double>(untraced.size());
  rep.info["divisions"] = static_cast<double>(divisions);
  rep.info["n_star"] = nstar;
}

// --------------------------------------------------------------- serve ----

// One generator thread driving up to kConnections non-blocking loopback
// connections with ppoll. Replies come back in per-connection send order,
// so each connection keeps a FIFO of its outstanding request ids.
class LoadGen {
 public:
  struct Request {
    int64_t due_ns = 0, sent_ns = 0, done_ns = 0;
    size_t payload = 0;
    bool ok = false;  // answered, and bit-equal to the expected reply
  };

  LoadGen(const std::vector<std::vector<uint8_t>>& frames,
          const std::vector<Matrix>& expected, Report& rep)
      : frames_(frames), expected_(expected), rep_(rep) {}
  ~LoadGen() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  Status Connect(int port, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) return Status::IoError("socket failed");
      conns_.emplace_back();
      conns_.back().fd = fd;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        return Status::IoError(std::string("connect: ") + std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return Status::OK();
  }

  // Open loop: request i is due at start + offsets[i] whatever the replies
  // do, goes to connection i % n and carries pool payload next_payload++.
  // Returns the schedule's start time.
  int64_t RunOpen(const std::vector<double>& offsets,
                  std::vector<Request>* reqs) {
    reqs->assign(offsets.size(), Request{});
    const int64_t start = NowNs() + 1000000;
    size_t i = 0;
    while (i < offsets.size() || outstanding_ > 0) {
      int64_t now = NowNs();
      while (i < offsets.size() &&
             start + static_cast<int64_t>(offsets[i] * 1e9) <= now) {
        Request& r = (*reqs)[i];
        r.due_ns = start + static_cast<int64_t>(offsets[i] * 1e9);
        Send(i % conns_.size(), i, r, now);
        ++i;
      }
      if (i == offsets.size() && (outstanding_ == 0 || Expired(start, offsets)))
        break;
      const int64_t next =
          i < offsets.size() ? start + static_cast<int64_t>(offsets[i] * 1e9)
                             : now + 5000000;
      Pump(std::max<int64_t>(0, next - now), reqs);
    }
    Abandon();
    return start;
  }

  // Closed loop: each connection keeps one request outstanding until
  // `seconds` have passed, then the replies drain.
  void RunClosed(double seconds, std::vector<Request>* reqs) {
    reqs->clear();
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t give_up = end + static_cast<int64_t>(kDrainSeconds * 1e9);
    for (;;) {
      const int64_t now = NowNs();
      if (now >= give_up || (now >= end && outstanding_ == 0)) break;
      for (size_t c = 0; c < conns_.size() && now < end; ++c) {
        if (conns_[c].inflight.empty() && !conns_[c].dead) {
          reqs->emplace_back();
          reqs->back().due_ns = now;
          Send(c, reqs->size() - 1, reqs->back(), now);
        }
      }
      Pump(now < end ? std::min<int64_t>(5000000, end - now) : 5000000, reqs);
    }
    Abandon();
  }

 private:
  struct Conn {
    int fd = -1;
    bool dead = false;
    serve::FrameReader reader;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    std::deque<size_t> inflight;
  };

  bool Expired(int64_t start, const std::vector<double>& offsets) const {
    const double last = offsets.empty() ? 0.0 : offsets.back();
    return NowNs() > start + static_cast<int64_t>((last + kDrainSeconds) * 1e9);
  }

  void Send(size_t c, size_t id, Request& r, int64_t now) {
    Conn& conn = conns_[c];
    r.sent_ns = now;
    r.payload = next_payload_++ % frames_.size();
    if (conn.dead) return;
    const std::vector<uint8_t>& f = frames_[r.payload];
    conn.out.insert(conn.out.end(), f.begin(), f.end());
    conn.inflight.push_back(id);
    ++outstanding_;
    Flush(conn);
  }

  void Flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) Kill(conn);
        return;
      }
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  void Kill(Conn& conn) {
    if (!conn.dead) rep_.Fail("connection lost");
    conn.dead = true;
    conn.out.clear();
    conn.out_off = 0;
  }

  // Waits up to timeout_ns for socket readiness, then writes what is
  // pending and consumes every complete reply.
  void Pump(int64_t timeout_ns, std::vector<Request>* reqs) {
    std::vector<pollfd> fds;
    for (Conn& c : conns_) {
      short ev = c.dead ? 0 : POLLIN;
      if (!c.out.empty()) ev |= POLLOUT;
      fds.push_back({c.fd, ev, 0});
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    for (size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (fds[c].revents & POLLOUT) Flush(conn);
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      uint8_t buf[1 << 16];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          conn.reader.Append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) Kill(conn);
        break;
      }
      const int64_t now = NowNs();
      for (;;) {
        Result<std::optional<serve::Frame>> next = conn.reader.Next();
        if (!next.ok()) {
          Kill(conn);
          break;
        }
        if (!next.value().has_value()) break;
        if (conn.inflight.empty()) {
          rep_.Fail("reply without a request");
          continue;
        }
        Request& r = (*reqs)[conn.inflight.front()];
        conn.inflight.pop_front();
        --outstanding_;
        r.done_ns = now;
        r.ok = Check(*next.value(), r.payload);
      }
      if (conn.dead) {
        outstanding_ -= conn.inflight.size();
        conn.inflight.clear();
      }
    }
  }

  bool Check(const serve::Frame& f, size_t payload) {
    if (f.type != serve::FrameType::kImputeResponse) {
      const Status st = f.type == serve::FrameType::kError
                            ? serve::DecodeErrorFrame(f)
                            : Status::Internal("unexpected frame type");
      rep_.Fail("request refused: " + st.ToString());
      return false;
    }
    Result<Matrix> m = serve::DecodeMatrixPayload(f.payload);
    if (!m.ok() || !BitEqual(m.value(), expected_[payload])) {
      rep_.Fail("served response differs from ImputeBatch");
      return false;
    }
    return true;
  }

  // Requests never answered (lost connection, drain deadline) stay !ok.
  void Abandon() {
    for (Conn& c : conns_) c.inflight.clear();
    outstanding_ = 0;
  }

  const std::vector<std::vector<uint8_t>>& frames_;
  const std::vector<Matrix>& expected_;
  Report& rep_;
  std::vector<Conn> conns_;
  size_t outstanding_ = 0;
  size_t next_payload_ = 0;
};

// Server-side CPU seconds so far: the process's minus the calling
// (generator) thread's.
double ServerCpuSeconds() { return CpuSeconds() - ThreadCpuSeconds(); }

// Restricts the calling thread, and every thread it starts later (the
// server's), to the CPU it runs on, so that the reference timed on this
// thread runs where the server's work runs.
void PinToCurrentCpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

struct ServeSetup {
  PreparedData prep;
  std::shared_ptr<const serve::ImputationEngine> engine;
  std::unique_ptr<serve::ImputationServer> server;
};

// Trains a GAIN generator briefly with DIM on the division's first
// kServeTrainRows rows, packages it as an in-memory checkpoint (identity
// normalization: rows are served in the prepared [0,1] space), optionally
// indexes the same training rows for retrieval, and starts a
// default-options server on an ephemeral port.
Status BuildServe(const SyntheticSpec& spec, uint64_t seed, bool retrieval,
                  std::vector<double>* prepare_s, ServeSetup* s) {
  Stopwatch w;
  s->prep = Divide(GenerateSynthetic(spec), seed);
  prepare_s->push_back(w.ElapsedSeconds());
  const Dataset& train = s->prep.train;
  SCIS_ASSIGN_OR_RETURN(std::unique_ptr<GenerativeImputer> model,
                        MakeGenerativeImputer("GAIN", seed));
  std::vector<size_t> idx(kServeTrainRows);
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const Dataset fit = train.GatherRows(idx);
  DimOptions dopts = PaperOptions().dim;
  dopts.epochs = kServeTrainEpochs;
  DimTrainer dim(dopts);
  SCIS_RETURN_NOT_OK(dim.Train(*model, fit));

  Checkpoint ckpt;
  ckpt.version = 2;
  ckpt.meta.model = "GAIN";
  for (const ColumnMeta& c : train.columns()) {
    ckpt.meta.columns.push_back(
        {c.name, static_cast<int>(c.kind), c.num_categories});
    ckpt.meta.norm_lo.push_back(0.0);
    ckpt.meta.norm_hi.push_back(1.0);
  }
  const ParamStore& params = model->generator_params();
  for (size_t p = 0; p < params.size(); ++p) {
    ckpt.params.push_back({params.name(p), params.value(p)});
  }
  if (retrieval) {
    index::AnnIndex index = index::AnnIndex::Build(fit.values(), fit.mask());
    SCIS_ASSIGN_OR_RETURN(
        s->engine, serve::ImputationEngine::FromCheckpoint(
                       ckpt, std::move(index), serve::RetrievalOptions{}));
  } else {
    SCIS_ASSIGN_OR_RETURN(s->engine,
                          serve::ImputationEngine::FromCheckpoint(ckpt));
  }
  if (s->server) s->server->Shutdown();
  s->server = std::make_unique<serve::ImputationServer>(s->engine,
                                                        serve::ServerOptions{});
  return s->server->Start();
}

// Request frames over pool_rows rows that follow the training rows
// (missing cells as NaN), `rows_per_request` rows each, with the engine's
// own answers as the expected replies, and the engine's masked hold-out
// RMSE on the pool.
void BuildPool(const ServeSetup& s, size_t pool_rows, size_t rows_per_request,
               std::vector<std::vector<uint8_t>>* frames,
               std::vector<Matrix>* expected, Report& rep) {
  const Dataset& train = s.prep.train;
  const size_t b0 = kServeTrainRows, n = pool_rows;
  Matrix pool = Rows(train.values(), b0, b0 + n);
  const Matrix mask = Rows(train.mask(), b0, b0 + n);
  for (size_t i = 0; i < pool.size(); ++i) {
    if (mask.data()[i] != 1.0) pool.data()[i] = std::nan("");
  }
  Result<Matrix> all = s.engine->ImputeBatch(pool);
  if (!all.ok()) {
    rep.Fail("ImputeBatch: " + all.status().ToString());
    return;
  }
  rep.e2e["rmse"] = MaskedRmse(all.value(), Rows(s.prep.truth, b0, b0 + n),
                               Rows(s.prep.eval_mask, b0, b0 + n));
  for (size_t b = 0; b + rows_per_request <= n; b += rows_per_request) {
    serve::Frame f;
    f.type = serve::FrameType::kImputeRequest;
    f.payload = serve::EncodeMatrixPayload(Rows(pool, b, b + rows_per_request));
    frames->emplace_back();
    serve::AppendFrame(f, &frames->back());
    expected->push_back(Rows(all.value(), b, b + rows_per_request));
  }
}

// Counts one load phase into attempted/failed; returns ok latencies (ms
// from the scheduled send) and lags (ms the send ran late).
void Tally(const std::vector<LoadGen::Request>& reqs, Report& rep,
           std::vector<double>* latency_ms, std::vector<double>* lag_ms) {
  for (const LoadGen::Request& r : reqs) {
    ++rep.attempted;
    if (!r.ok) {
      ++rep.failed;
      continue;
    }
    latency_ms->push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
    if (lag_ms) lag_ms->push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
  }
}

void ReadServeCounters(const obs::MetricsSnapshot& s, Report& rep) {
  auto hist = [&](const std::string& name) {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? obs::MetricsSnapshot::HistogramData{}
                                    : it->second;
  };
  const double batches = static_cast<double>(s.CounterOr("serve.batches"));
  const auto rows = hist("serve.batch_rows");
  const auto req = hist("serve.request_ms");
  const auto batch = hist("serve.batch_ms");
  rep.layers["serve.batches"] = batches;
  rep.layers["serve.rows_per_batch"] = Ratio(rows.sum, static_cast<double>(rows.count));
  rep.layers["serve.rejected"] = static_cast<double>(s.CounterOr("serve.rejected"));
  rep.layers["serve.timed_out"] = static_cast<double>(s.CounterOr("serve.timed_out"));
  rep.layers["serve.queue_request_ms_p50"] = HistogramQuantile(req.bounds, req.counts, 0.5);
  rep.layers["serve.queue_request_ms_p99"] = HistogramQuantile(req.bounds, req.counts, 0.99);
  rep.layers["serve.batch_ms_p50"] = HistogramQuantile(batch.bounds, batch.counts, 0.5);
  const double queries = static_cast<double>(s.CounterOr("index.queries"));
  rep.layers["index.leaf_visits_per_query"] =
      Ratio(static_cast<double>(s.CounterOr("index.leaf_visits")), queries);
  rep.layers["index.rows_scanned_per_query"] =
      Ratio(static_cast<double>(s.CounterOr("index.rows_scanned")), queries);
  rep.info["engine_rows"] = static_cast<double>(s.CounterOr("serve.engine.rows"));
}

// Client encode + server decode of one request, server encode + client
// decode of its reply: the codec work one round trip costs, in µs.
double WireCodecUs(const Matrix& request, const Matrix& reply) {
  return 1e3 * TimeCallMs("bench.wire.codec", 2000, [&] {
    (void)serve::DecodeMatrixPayload(serve::EncodeMatrixPayload(request));
    (void)serve::DecodeMatrixPayload(serve::EncodeMatrixPayload(reply));
  });
}

struct Rung {
  double rate = 0.0, seconds = 0.0;
  std::vector<double> latency_ms, lag_ms;
  std::vector<double> due_s;  // schedule offset of each latency sample
  size_t sent = 0, ok = 0, kept_up = 0;
};

// The median over consecutive one-second windows of the rung of each
// window's q-quantile latency. A host stall of a few hundred milliseconds
// (vCPU steal on a shared machine) moves one window, not the statistic.
double WindowedPercentile(const Rung& r, double q) {
  std::vector<std::vector<double>> windows(
      std::max<size_t>(1, static_cast<size_t>(r.seconds)));
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    const auto w = static_cast<size_t>(r.due_s[i]);
    windows[std::min(w, windows.size() - 1)].push_back(r.latency_ms[i]);
  }
  std::vector<double> per;
  for (const std::vector<double>& w : windows) per.push_back(Percentile(w, q));
  return Median(per);
}

// Runs the open-loop ladder. The reference rung gets kReferenceShare of
// the window, so that its p99 rests on tens of thousands of samples; the
// other rungs split the rest. Each rung drains before the next starts.
constexpr double kReferenceShare = 0.6;

// `record` puts each rung's counts and latencies into the printed report.
std::vector<Rung> RunLadder(LoadGen& gen, uint64_t seed, double window,
                            bool record, Report& rep) {
  std::vector<Rung> rungs;
  for (size_t k = 0; k < kOpenLadder.size(); ++k) {
    Rung r;
    r.rate = kOpenLadder[k];
    r.seconds = r.rate == kOpenReferenceRate
                    ? window * kReferenceShare
                    : window * (1.0 - kReferenceShare) /
                          static_cast<double>(kOpenLadder.size() - 1);
    const std::vector<double> offsets =
        PoissonSchedule(seed * 1000003ULL + k, r.rate, r.seconds);
    std::vector<LoadGen::Request> reqs;
    const int64_t rung_end = gen.RunOpen(offsets, &reqs) +
                             static_cast<int64_t>(r.seconds * 1e9);
    const uint64_t failed_before = rep.failed;
    Tally(reqs, rep, &r.latency_ms, &r.lag_ms);
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].ok) r.due_s.push_back(offsets[i]);
    }
    r.sent = reqs.size();
    r.ok = reqs.size() - (rep.failed - failed_before);
    for (const LoadGen::Request& q : reqs) {
      if (q.ok && q.done_ns <= rung_end) ++r.kept_up;
    }
    const std::string key = "rung" + std::to_string(k) + ".";
    if (!record) {
      rungs.push_back(std::move(r));
      continue;
    }
    rep.info[key + "rate_rps"] = r.rate;
    rep.info[key + "sent"] = static_cast<double>(r.sent);
    rep.info[key + "ok"] = static_cast<double>(r.ok);
    rep.info[key + "failed"] = static_cast<double>(r.sent - r.ok);
    rep.info[key + "p50_ms"] = Percentile(r.latency_ms, 0.5);
    rep.info[key + "p99_ms"] = Percentile(r.latency_ms, 0.99);
    rep.info[key + "lag_p99_ms"] = Percentile(r.lag_ms, 0.99);
    rungs.push_back(std::move(r));
  }
  return rungs;
}

void RunServeOpen(uint64_t seed, double seconds, bool traced, Report& rep) {
  PinToCurrentCpu();
  ServeSetup s;
  std::vector<double> prepare_s;
  Status st = Status::OK();
  rep.e2e["setup_s"] = TimedSetup([&] {
    if (st.ok()) st = BuildServe(WeatherSpec(0.008), seed, false, &prepare_s, &s);
  }, rep);
  if (!st.ok()) return rep.Fail("setup: " + st.ToString());
  std::vector<std::vector<uint8_t>> frames;
  std::vector<Matrix> expected;
  BuildPool(s, kOpenPoolRows, 1, &frames, &expected, rep);
  LoadGen gen(frames, expected, rep);
  if (Status c = gen.Connect(s.server->port(), kConnections); !c.ok()) {
    return rep.Fail(c.ToString());
  }

  const double window = traced ? seconds / 2 : seconds;
  auto summarize = [&](const std::vector<Rung>& rungs, bool e2e) {
    double max_rate = 0.0, top_rows = 0.0, ref_p50 = 0.0, ref_p90 = 0.0,
           ref_p99 = 0.0;
    for (const Rung& r : rungs) {
      const bool keeps_up = r.ok == r.sent &&
          static_cast<double>(r.kept_up) >= kKeepUpShare * static_cast<double>(r.sent) &&
          Percentile(r.latency_ms, 0.99) <= kLatencyLimitMs;
      if (keeps_up) max_rate = r.rate;
      if (r.rate == kOpenReferenceRate) {
        ref_p50 = WindowedPercentile(r, 0.5);
        ref_p90 = WindowedPercentile(r, 0.9);
        ref_p99 = Percentile(r.latency_ms, 0.99);
        if (e2e) rep.info["reference_samples"] = static_cast<double>(r.latency_ms.size());
      }
      top_rows = static_cast<double>(r.kept_up) / r.seconds;
    }
    if (e2e) {
      rep.info["reference_p50_ms"] = ref_p50;
      rep.info["reference_p90_ms"] = ref_p90;
      rep.info["reference_p99_ms"] = ref_p99;
      rep.info["rows_per_s"] = top_rows;
      rep.info["max_rate_rps"] = max_rate;
      rep.info["limit_ms"] = kLatencyLimitMs;
      rep.info["reference_rate_rps"] = kOpenReferenceRate;
    }
    return ref_p50;
  };

  // Server-side CPU: process CPU minus the generator's (this thread's).
  const uint64_t attempted = rep.attempted;
  double untraced_p50 = 0.0;
  const CpuCost c = MeasureCpu(ServerCpuSeconds, [&] {
    untraced_p50 = summarize(RunLadder(gen, seed, window, true, rep), true);
  });
  rep.e2e["norm_cpu_ms_per_op"] =
      Ratio(c.norm_ms, static_cast<double>(rep.attempted - attempted));
  if (traced) {
    obs::Registry::Global().Reset();
    obs::SetTraceEnabled(true);
    const std::vector<Rung> rungs = RunLadder(gen, seed + 1, window, false, rep);
    rep.layers["serve.wire_codec_us"] =
        WireCodecUs(Rows(s.prep.train.values(), kServeTrainRows,
                         kServeTrainRows + 1), expected[0]);
    obs::SetTraceEnabled(false);
    ReadServeCounters(obs::Registry::Global().Snapshot(), rep);
    rep.layers["data.prepare_s"] = Median(prepare_s);
    rep.layers["obs.trace_overhead_ratio"] =
        Ratio(summarize(rungs, false), untraced_p50);
  }
  s.server->Shutdown();
}

void RunServeBulk(uint64_t seed, double seconds, bool traced, Report& rep) {
  PinToCurrentCpu();
  ServeSetup s;
  std::vector<double> prepare_s;
  Status st = Status::OK();
  rep.e2e["setup_s"] = TimedSetup([&] {
    if (st.ok()) st = BuildServe(SearchSpec(0.02), seed, true, &prepare_s, &s);
  }, rep);
  if (!st.ok()) return rep.Fail("setup: " + st.ToString());
  std::vector<std::vector<uint8_t>> frames;
  std::vector<Matrix> expected;
  BuildPool(s, kBulkPoolRows, kBulkRows, &frames, &expected, rep);
  LoadGen gen(frames, expected, rep);
  if (Status c = gen.Connect(s.server->port(), kConnections); !c.ok()) {
    return rep.Fail(c.ToString());
  }

  // One closed-loop phase of `window` seconds in slices. Adds each answered
  // request's latency to `lat` and each slice's server-side CPU ms per
  // request, normalised and raw, to `norm_ms` and `cpu_ms`; returns rows
  // answered per wall second.
  auto phase = [&](double window, std::vector<double>* lat,
                   std::vector<double>* norm_ms, std::vector<double>* cpu_ms) {
    Stopwatch w;
    do {
      std::vector<LoadGen::Request> reqs;
      const CpuCost c = MeasureCpu(ServerCpuSeconds, [&] {
        gen.RunClosed(kSliceSeconds, &reqs);
      });
      const size_t before = lat->size();
      Tally(reqs, rep, lat, nullptr);
      const auto answered = static_cast<double>(lat->size() - before);
      if (answered > 0) {
        norm_ms->push_back(c.norm_ms / answered);
        cpu_ms->push_back(1e3 * c.seconds / answered);
      }
    } while (w.ElapsedSeconds() < window);
    return static_cast<double>(lat->size() * kBulkRows) / w.ElapsedSeconds();
  };
  std::vector<double> lat, norm_ms, cpu_ms;
  const double rows_per_s =
      phase(traced ? seconds / 2 : seconds, &lat, &norm_ms, &cpu_ms);
  rep.e2e["norm_cpu_ms_per_op"] = Median(norm_ms);
  rep.info["cpu_ms"] = Median(cpu_ms);
  rep.info["p50_ms"] = Percentile(lat, 0.5);
  rep.info["p90_ms"] = Percentile(lat, 0.9);
  rep.info["p99_ms"] = Percentile(lat, 0.99);
  rep.info["rows_per_s"] = rows_per_s;
  rep.info["samples"] = static_cast<double>(lat.size());
  rep.info["slices"] = static_cast<double>(norm_ms.size());
  if (traced) {
    obs::Registry::Global().Reset();
    obs::SetTraceEnabled(true);
    std::vector<double> tlat, tnorm_ms, tcpu_ms;
    phase(seconds / 2, &tlat, &tnorm_ms, &tcpu_ms);
    rep.layers["serve.wire_codec_us"] = WireCodecUs(
        Rows(s.prep.train.values(), kServeTrainRows,
             kServeTrainRows + kBulkRows), expected[0]);
    obs::SetTraceEnabled(false);
    ReadServeCounters(obs::Registry::Global().Snapshot(), rep);
    rep.layers["data.prepare_s"] = Median(prepare_s);
    rep.layers["obs.trace_overhead_ratio"] =
        Ratio(Median(tnorm_ms), Median(norm_ms));
    rep.info["traced_seconds"] = seconds / 2;
  }
  s.server->Shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = 1;
  double seconds = 10.0;
  FlagParser flags;
  flags.AddString("workload", &workload,
                  "scis_search, scis_weather, serve_open or serve_bulk");
  flags.AddInt("seed", &seed, "seed every input is generated from");
  flags.AddDouble("seconds", &seconds, "measurement window");
  flags.AddString("trace-out", &trace_out,
                  "traced run: write the span trace of the traced half here");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  runtime::SetNumThreads(1);
  const bool traced = !trace_out.empty();
  const auto useed = static_cast<uint64_t>(seed);
  Report rep;
  if (workload == "scis_search") {
    RunScisWorkload(SearchSpec(0.02), kSearchDivisions, useed, seconds, traced,
                    rep);
  } else if (workload == "scis_weather") {
    RunScisWorkload(WeatherSpec(0.008), kWeatherDivisions, useed, seconds,
                    traced, rep);
  } else if (workload == "serve_open") {
    RunServeOpen(useed, seconds, traced, rep);
  } else if (workload == "serve_bulk") {
    RunServeBulk(useed, seconds, traced, rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (traced) {
    if (Status st = obs::WriteTrace(trace_out); !st.ok()) {
      rep.Fail("trace: " + st.ToString());
    }
    rep.info["trace_dropped"] = static_cast<double>(obs::TraceDroppedCount());
  }
  if (rep.failed > 0) rep.correct = false;
  std::printf("%s\n", rep.ToJson().c_str());
  return 0;
}
