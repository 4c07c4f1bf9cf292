// Microbenchmarks (google-benchmark) for the kernels that dominate SCIS
// runtime: Sinkhorn solves, the MS divergence + Prop.-1 gradient, autodiff
// MLP steps, the GINN kNN graph build, and CART tree fitting. These back
// the DESIGN.md ablation on kernel-domain Sinkhorn cost vs λ.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"

#include "core/dim.h"
#include "index/knn_graph.h"
#include "kernels/elementwise.h"
#include "kernels/lse.h"
#include "models/gain_imputer.h"
#include "models/tree.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "ot/divergence.h"
#include "ot/masked_cost.h"
#include "ot/sinkhorn.h"
#include "runtime/runtime.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace scis {
namespace {

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a = rng.NormalMatrix(n, n);
  Matrix b = rng.NormalMatrix(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// Args: rows n, coordinates d, and 1 for the self cost (a, a) or 0 for a
// cross cost between two n-row batches. 128 rows at d = 9 and 64 are the
// two costs of one DIM step on Weather- and Search-shaped data.
void BM_PairwiseDistances(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const bool self = state.range(2) != 0;
  Rng rng(2);
  Matrix a = rng.UniformMatrix(n, d, 0, 1);
  Matrix b = rng.UniformMatrix(n, d, 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairwiseSquaredDistances(a, self ? a : b));
  }
}
BENCHMARK(BM_PairwiseDistances)
    ->Args({128, 16, 1})
    ->Args({512, 16, 1})
    ->Args({128, 9, 0})
    ->Args({128, 9, 1})
    ->Args({128, 64, 0})
    ->Args({128, 64, 1});

// Sinkhorn iteration cost vs λ: large λ (the paper's 130) converges in a
// couple of iterations; small λ needs many more, and absorbs scalings into
// log potentials (rebuilding the Gibbs kernel) once they leave range.
void BM_Sinkhorn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const double lambda = static_cast<double>(state.range(1)) / 100.0;
  Rng rng(3);
  Matrix x = rng.UniformMatrix(n, 8, 0, 1);
  Matrix cost = PairwiseSquaredDistances(x, x);
  SinkhornOptions opts;
  opts.lambda = lambda;
  opts.max_iters = 200;
  opts.tol = 1e-9;
  int iters = 0;
  for (auto _ : state) {
    SinkhornSolution s = SolveSinkhorn(cost, opts);
    iters = s.iters;
    benchmark::DoNotOptimize(s.reg_value);
  }
  state.counters["sinkhorn_iters"] = iters;
}
BENCHMARK(BM_Sinkhorn)
    ->Args({128, 5})      // λ = 0.05
    ->Args({128, 100})    // λ = 1
    ->Args({128, 13000})  // λ = 130 (paper)
    ->Args({256, 13000});

void BM_MsDivergenceWithGrad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Matrix x = rng.UniformMatrix(n, 9, 0, 1);
  Matrix xbar = rng.UniformMatrix(n, 9, 0, 1);
  Matrix m = rng.BernoulliMatrix(n, 9, 0.7);
  SinkhornOptions opts;
  opts.lambda = 130.0;
  opts.max_iters = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MsDivergence(xbar, x, m, opts, true));
  }
}
BENCHMARK(BM_MsDivergenceWithGrad)->Arg(64)->Arg(128)->Arg(256);

void BM_MlpForwardBackward(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(5);
  ParamStore store;
  Mlp net(&store, "bench", {18, 9, 9}, Activation::kRelu,
          Activation::kSigmoid, rng);
  Adam adam(1e-3);
  Matrix x = rng.UniformMatrix(batch, 18, 0, 1);
  Matrix y = rng.UniformMatrix(batch, 9, 0, 1);
  Matrix w = Matrix::Ones(batch, 9);
  for (auto _ : state) {
    Tape tape;
    Var pred = net.Forward(tape, tape.Constant(x));
    Var loss = WeightedMseLoss(pred, tape.Constant(y), tape.Constant(w));
    tape.Backward(loss);
    adam.Step(store, store.CollectGrads());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForwardBackward)->Arg(128)->Arg(512);

void BM_GainTrainingEpoch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  Matrix values = rng.UniformMatrix(n, 9, 0, 1);
  Matrix mask = rng.BernoulliMatrix(n, 9, 0.8);
  MulInPlace(values, mask);
  Dataset data("bench", values, mask, {});
  for (auto _ : state) {
    GainImputerOptions o;
    o.deep.epochs = 1;
    GainImputer gain(o);
    benchmark::DoNotOptimize(gain.Fit(data));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GainTrainingEpoch)->Arg(1024)->Arg(4096);

void BM_DimTrainingEpoch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Matrix values = rng.UniformMatrix(n, 9, 0, 1);
  Matrix mask = rng.BernoulliMatrix(n, 9, 0.8);
  MulInPlace(values, mask);
  Dataset data("bench", values, mask, {});
  for (auto _ : state) {
    GainImputerOptions o;
    o.deep.epochs = 1;
    GainImputer gain(o);
    DimOptions d;
    d.epochs = 1;
    d.lambda = 130.0;
    DimTrainer dim(d);
    benchmark::DoNotOptimize(dim.Train(gain, data));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DimTrainingEpoch)->Arg(1024)->Arg(4096);

// GINN's similarity-graph build: one AnnIndex, exact up to 2048 rows.
void BM_KnnGraphBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(8);
  Matrix x = rng.UniformMatrix(n, 9, 0, 1);
  Matrix m = rng.BernoulliMatrix(n, 9, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::BuildKnnGraph(x, m, 10));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KnnGraphBuild)->Arg(512)->Arg(2048);

void BM_TreeFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(9);
  Matrix x = rng.UniformMatrix(n, 8, 0, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = x(i, 0) + 0.5 * x(i, 3);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (auto _ : state) {
    RegressionTree tree;
    tree.Fit(x, y, idx, rng);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeFit)->Arg(1024)->Arg(8192);

// ---------------------------------------------------------------------------
// Thread-count sweeps for the runtime-parallelized hot paths. Each arm
// reconfigures the global pool, times the kernel by hand, and reports the
// speedup over the 1-thread arm (which runs first and is the exact serial
// code path) plus the runtime's chunk/busy counters — this is the perf
// trajectory the BENCH json tracks.

double g_sinkhorn_serial_ns = 0.0;
double g_matmul_serial_ns = 0.0;

template <typename Kernel>
void RunThreadSweep(benchmark::State& state, int threads,
                    double* serial_ns_slot, Kernel&& kernel) {
  runtime::SetNumThreads(threads);
  runtime::ResetStats();
  double total_ns = 0.0;
  int64_t iters = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    kernel();
    const auto t1 = std::chrono::steady_clock::now();
    total_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    ++iters;
  }
  const double per_iter = iters > 0 ? total_ns / static_cast<double>(iters)
                                    : 0.0;
  if (threads == 1) *serial_ns_slot = per_iter;
  const runtime::Stats stats = runtime::GetStats();
  state.counters["threads"] = threads;
  state.counters["worker_chunks"] =
      static_cast<double>(stats.worker_chunks) /
      std::max<int64_t>(1, iters);
  state.counters["pool_busy_ms"] =
      static_cast<double>(stats.busy_ns) / 1e6 /
      std::max<int64_t>(1, iters);
  if (*serial_ns_slot > 0.0 && per_iter > 0.0) {
    state.counters["speedup_vs_1t"] = *serial_ns_slot / per_iter;
  }
  runtime::SetNumThreads(0);  // restore the env/hardware default
}

// Fixed iteration count (tol = 0 never converges early) so every arm does
// identical work on the paper-scale 1000x1000 cost matrix.
void BM_SinkhornThreadSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(10);
  Matrix x = rng.UniformMatrix(1000, 8, 0, 1);
  Matrix cost = PairwiseSquaredDistances(x, x);
  SinkhornOptions opts;
  opts.lambda = 130.0;
  opts.max_iters = 5;
  opts.tol = 0.0;
  RunThreadSweep(state, threads, &g_sinkhorn_serial_ns, [&] {
    benchmark::DoNotOptimize(SolveSinkhorn(cost, opts).reg_value);
  });
}
BENCHMARK(BM_SinkhornThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MatMulThreadSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(11);
  Matrix a = rng.NormalMatrix(512, 512);
  Matrix b = rng.NormalMatrix(512, 512);
  RunThreadSweep(state, threads, &g_matmul_serial_ns, [&] {
    benchmark::DoNotOptimize(MatMul(a, b));
  });
}
BENCHMARK(BM_MatMulThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// ---------------------------------------------------------------------------
// --bench-json mode: a hand-rolled sweep over the src/kernels-backed hot
// paths, emitting machine-readable per-kernel ns/op at 1/2/4/8 threads.
// This is the file checked in as bench/BENCH_kernels.json (the perf
// baseline new PRs diff against; see EXPERIMENTS.md for methodology).
// Deliberately not google-benchmark: the schema stays stable and tiny, and
// quick mode is fast enough to run as a CI smoke test.

double TimeNsPerOp(const std::function<void()>& op, double min_seconds) {
  op();  // warm-up (first-touch, pool spin-up)
  int reps = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) op();
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (sec >= min_seconds || reps >= (1 << 22)) {
      return sec * 1e9 / static_cast<double>(reps);
    }
    const double grow = sec > 0.0 ? 1.3 * min_seconds / sec : 8.0;
    reps = static_cast<int>(static_cast<double>(reps) *
                            std::max(2.0, grow));
  }
}

int RunKernelBenchJson(const std::string& path, bool quick) {
  struct BenchCase {
    std::string name;
    std::function<void()> op;
  };
  const double min_sec = quick ? 0.02 : 0.25;
  const size_t sink_n = quick ? 256 : 1000;
  const size_t mm_n = quick ? 128 : 512;
  const size_t tmm_n = quick ? 96 : 256;
  const size_t map_n = quick ? 128 : 512;
  const size_t vec_n = 1 << 16;

  Rng rng(42);
  Matrix x = rng.UniformMatrix(sink_n, 8, 0, 1);
  Matrix cost = PairwiseSquaredDistances(x, x);
  SinkhornOptions opts;
  opts.lambda = 130.0;
  opts.max_iters = 5;
  opts.tol = 0.0;  // fixed work: 5 dual iterations + plan recovery
  Matrix a = rng.NormalMatrix(mm_n, mm_n);
  Matrix b = rng.NormalMatrix(mm_n, mm_n);
  Matrix ta = rng.NormalMatrix(tmm_n, tmm_n);
  Matrix tb = rng.NormalMatrix(tmm_n, tmm_n);
  Matrix mp = rng.UniformMatrix(map_n, map_n, -6.0, 2.0);
  Matrix w = rng.UniformMatrix(1, vec_n, 0.0, 1.0);
  Matrix p = rng.UniformMatrix(1, vec_n, 0.0, 1.0);
  Matrix y = rng.UniformMatrix(1, vec_n, 0.0, 1.0);
  Matrix acc = Matrix::Ones(1, vec_n);
  // One DIM minibatch's envelope gradient (both plan sides) at the Weather
  // (d = 9) and Search (d = 64) widths, on a converged λ = 130 plan.
  struct GradCase {
    Matrix a, ma, b, mb, plan;
  };
  auto grad_case = [&](size_t d) {
    GradCase g;
    g.a = rng.UniformMatrix(128, d, 0, 1);
    g.ma = rng.BernoulliMatrix(128, d, 0.8);
    g.b = rng.UniformMatrix(128, d, 0, 1);
    g.mb = rng.BernoulliMatrix(128, d, 0.8);
    SinkhornOptions grad_opts;
    grad_opts.lambda = 130.0;
    g.plan = SolveSinkhorn(MaskedCostMatrix(g.a, g.ma, g.b, g.mb), grad_opts)
                 .plan;
    return g;
  };
  const GradCase g9 = grad_case(9);
  const GradCase g64 = grad_case(64);
  auto grad_op = [](const GradCase& g) {
    benchmark::DoNotOptimize(MaskedOtGradWrtA(g.plan, g.a, g.ma, g.b, g.mb));
    benchmark::DoNotOptimize(MaskedOtGradWrtB(g.plan, g.a, g.ma, g.b, g.mb));
  };

  const std::vector<BenchCase> cases = {
      {"sinkhorn_solve_" + std::to_string(sink_n),
       [&] { benchmark::DoNotOptimize(SolveSinkhorn(cost, opts).reg_value); }},
      {"matmul_" + std::to_string(mm_n),
       [&] { benchmark::DoNotOptimize(MatMul(a, b)); }},
      {"matmul_transa_" + std::to_string(tmm_n),
       [&] { benchmark::DoNotOptimize(MatMulTransA(ta, tb)); }},
      {"matmul_transb_" + std::to_string(tmm_n),
       [&] { benchmark::DoNotOptimize(MatMulTransB(ta, tb)); }},
      {"transpose_" + std::to_string(mm_n),
       [&] { benchmark::DoNotOptimize(Transpose(a)); }},
      {"exp_map_" + std::to_string(map_n),
       [&] { benchmark::DoNotOptimize(Exp(mp)); }},
      {"sigmoid_map_" + std::to_string(map_n),
       [&] { benchmark::DoNotOptimize(Sigmoid(mp)); }},
      {"logsumexp_" + std::to_string(vec_n),
       [&] {
         benchmark::DoNotOptimize(kernels::LogSumExp(p.data(), vec_n));
       }},
      {"weighted_sse_" + std::to_string(vec_n),
       [&] {
         benchmark::DoNotOptimize(
             kernels::WeightedSse(w.data(), p.data(), y.data(), vec_n));
       }},
      {"axpy_" + std::to_string(vec_n),
       [&] { AxpyInPlace(acc, 1e-9, p); }},
      {"masked_ot_grad_128_d9", [&] { grad_op(g9); }},
      {"masked_ot_grad_128_d64", [&] { grad_op(g64); }},
  };

  const int thread_arms[] = {1, 2, 4, 8};
  // results[case][arm] — the 1-thread arm is the serial code path.
  std::vector<std::array<double, 4>> results(cases.size());
  for (int t = 0; t < 4; ++t) {
    runtime::SetNumThreads(thread_arms[t]);
    for (size_t c = 0; c < cases.size(); ++c) {
      results[c][t] = TimeNsPerOp(cases[c].op, min_sec);
    }
  }
  runtime::SetNumThreads(0);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("bench-json: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"scis-bench-kernels-v1\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t c = 0; c < cases.size(); ++c) {
    std::fprintf(out, "    {\"name\": \"%s\", \"ns_per_op\": {",
                 cases[c].name.c_str());
    for (int t = 0; t < 4; ++t) {
      std::fprintf(out, "%s\"%d\": %.1f", t ? ", " : "", thread_arms[t],
                   results[c][t]);
    }
    std::fprintf(out, "}}%s\n", c + 1 < cases.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("bench json written to %s (%zu kernels, mode=%s)\n",
              path.c_str(), cases.size(), quick ? "quick" : "full");
  return 0;
}

}  // namespace scis

int main(int argc, char** argv) {
  // --threads=<n>, --trace-out=<p>, --report-out=<p>, --bench-json=<p> and
  // --quick are ours; strip them before google-benchmark sees the argv.
  std::string trace_out, report_out, bench_json;
  bool quick = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      scis::runtime::SetNumThreads(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--report-out=", 13) == 0) {
      report_out = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      bench_json = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!bench_json.empty()) {
    return scis::RunKernelBenchJson(bench_json, quick);
  }
  if (!trace_out.empty()) {
    scis::obs::ClearTrace();
    scis::obs::SetTraceEnabled(true);
    scis::obs::SetCurrentThreadName("main");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const scis::runtime::Stats stats = scis::runtime::GetStats();
  std::printf("%s\n", stats.ToString().c_str());
  int rc = 0;
  if (!trace_out.empty()) {
    scis::obs::SetTraceEnabled(false);
    if (scis::Status st = scis::obs::WriteTrace(trace_out); !st.ok()) {
      std::printf("trace write failed: %s\n", st.ToString().c_str());
      rc = 1;
    } else {
      std::printf("trace written to %s (%llu spans)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(scis::obs::TraceSpanCount()));
    }
  }
  if (!report_out.empty()) {
    scis::obs::RunReport report("micro_kernels");
    report.AddConfig("threads",
                     static_cast<int64_t>(scis::runtime::NumThreads()));
    report.AddSectionValue("runtime", "parallel_regions",
                           stats.parallel_regions);
    report.AddSectionValue("runtime", "serial_regions", stats.serial_regions);
    report.AddSectionValue("runtime", "worker_chunks", stats.worker_chunks);
    report.AddSectionValue("runtime", "inline_chunks", stats.inline_chunks);
    report.AddSectionValue("runtime", "busy_ns", stats.busy_ns);
    if (scis::Status st = report.Write(report_out); !st.ok()) {
      std::printf("report write failed: %s\n", st.ToString().c_str());
      rc = 1;
    } else {
      std::printf("run report written to %s\n", report_out.c_str());
    }
  }
  return rc;
}
