#!/usr/bin/env python3
"""The repository benchmark: SCIS Algorithm-1 wall time and serving latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call builds the program's libraries and the measuring program
(perfbench/bench.cc) from source into .bench_build with CMake. --trace 0
prints the end-to-end metrics; --trace 1 makes a separate traced run and
prints the per-layer metrics, derived from the obs spans and counters the
program already records plus benchmark-side spans around its public calls.
Every run checks the program's outputs. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
check still prints that line, and the exit code is then 1.

Workloads, metrics and the layer-to-end-to-end mapping are described in
perfbench/METRICS.md.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# scis_search and serve_open are diagnostics that BENCHMARK.json does not
# list: their figures move between runs of the same code by more than any
# usable bound (see METRICS.md).
WORKLOADS = ("scis_search", "scis_weather", "serve_open", "serve_bulk")

# name -> unit; BENCHMARK.json lists the same names (checked by --self-test).
END_TO_END = {
    "setup_s": "s",
    "norm_cpu_ms_per_op": "ms",
    "rmse": "1",
}
PER_LAYER = {
    "core.dim_initial_s": "s",
    "core.dim_final_s": "s",
    "core.impute_s": "s",
    "core.n_star": "rows",
    "core.dim_steps": "count",
    "core.dim_forward_self_s": "s",
    "core.dim_forward_unattributed_share": "ratio",
    "core.dim_backward_s": "s",
    "core.dim_optimizer_s": "s",
    "ot.sinkhorn_solve_s": "s",
    "ot.sinkhorn_iterate_s": "s",
    "ot.sinkhorn_plan_s": "s",
    "ot.solves": "count",
    "ot.iters_per_solve": "count",
    "ot.converged_ratio": "ratio",
    "ot.masked_cost_ms": "ms",
    "ot.grad_ms": "ms",
    "ot.ms_div_train_ms": "ms",
    "sse.prepare_s": "s",
    "sse.search_s": "s",
    "sse.probes": "count",
    "sse.search_steps": "count",
    "autodiff.pool_misses": "count",
    "models.impute_rows_per_s": "rows/s",
    "data.prepare_s": "s",
    "serve.batches": "count",
    "serve.rows_per_batch": "rows",
    "serve.rejected": "count",
    "serve.timed_out": "count",
    "serve.queue_request_ms_p50": "ms",
    "serve.queue_request_ms_p99": "ms",
    "serve.batch_ms_p50": "ms",
    "serve.wire_codec_us": "us",
    "serve.engine_us_per_row": "us",
    "index.search_s": "s",
    "index.leaf_visits_per_query": "count",
    "index.rows_scanned_per_query": "count",
    "obs.trace_overhead_ratio": "ratio",
    "attribution.scis_run_coverage": "ratio",
    "attribution.dim_train_coverage": "ratio",
}
# Named layers must cover their phase to within this share (the traced
# run fails otherwise).
ATTRIBUTION_TOLERANCE = 0.05
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the measuring program; quiet on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                  "perfbench", "perfbench_test"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see .bench_build/build.log)", 1)


class Span:
    __slots__ = ("name", "tid", "ts", "end", "dur", "self", "parent")

    def __init__(self, name, tid, ts, dur):
        self.name, self.tid, self.ts, self.dur = name, tid, ts, dur
        self.end = ts + dur
        self.self = dur
        self.parent = None


def nest(spans, eps=1e-3):
    """Links each span to its innermost enclosing span on the same thread
    and subtracts children from their parent's self time (timestamps in µs;
    eps absorbs the ns -> µs rounding of the trace file)."""
    by_tid = collections.defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for s in group:
            while stack and stack[-1].end <= s.ts + eps:
                stack.pop()
            if stack and s.end <= stack[-1].end + eps:
                s.parent = stack[-1]
                s.parent.self -= s.dur
            stack.append(s)
    return spans


def ancestor(span, name):
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return nest([Span(e["name"], e["tid"], e["ts"], e["dur"])
                 for e in events if e.get("ph") == "X"])


def span_layers(spans, raw):
    """Per-layer metrics derived from spans, plus the attribution check.
    Returns (metrics, errors)."""
    info, layers = raw["info"], {}
    errors = []
    us = 1e-6
    total = collections.defaultdict(float)
    self_total = collections.defaultdict(float)
    runs = collections.defaultdict(list)  # scis.run span -> its dim.train spans
    for s in spans:
        if s.name == "index.search" or s.name == "serve.engine.impute":
            total[s.name] += s.dur
            continue
        run = s if s.name == "scis.run" else ancestor(s, "scis.run")
        if run is None:
            continue  # setup and benchmark-side microbench calls
        total[s.name] += s.dur
        self_total[s.name] += s.self
        if s.name == "dim.train":
            runs[id(run)].append(s)

    passes = info.get("traced_passes", 0.0)
    if passes > 0:
        initial = final = 0.0
        for trains in runs.values():
            trains.sort(key=lambda s: s.ts)
            initial += trains[0].dur if trains else 0.0
            final += sum(s.dur for s in trains[1:])
        per = us / passes
        layers["core.dim_initial_s"] = initial * per
        layers["core.dim_final_s"] = final * per
        layers["core.impute_s"] = total["scis.impute"] * per
        layers["core.dim_forward_self_s"] = self_total["dim.forward"] * per
        layers["core.dim_forward_unattributed_share"] = (
            self_total["dim.forward"] / total["dim.forward"]
            if total["dim.forward"] else 0.0)
        layers["core.dim_backward_s"] = total["dim.backward"] * per
        layers["core.dim_optimizer_s"] = total["dim.optimizer"] * per
        layers["ot.sinkhorn_solve_s"] = total["sinkhorn.solve"] * per
        layers["ot.sinkhorn_iterate_s"] = total["sinkhorn.iterate"] * per
        layers["ot.sinkhorn_plan_s"] = total["sinkhorn.plan"] * per
        layers["sse.prepare_s"] = total["sse.prepare"] * per
        layers["sse.search_s"] = (info["traced_sse_seconds"] / passes
                                  - layers["sse.prepare_s"])
        if total["scis.impute"]:
            layers["models.impute_rows_per_s"] = (
                info["rows"] * passes / (total["scis.impute"] * us))

        # Phase checks: the named layers must add up to their phase.
        run_s = total["scis.run"] * per
        named = sum(layers[k] for k in (
            "core.dim_initial_s", "sse.prepare_s", "sse.search_s",
            "core.dim_final_s", "core.impute_s"))
        layers["attribution.scis_run_coverage"] = named / run_s if run_s else 0.0
        train_s = total["dim.train"] * per
        inside = (total["dim.forward"] + total["dim.backward"]
                  + total["dim.optimizer"]) * per
        layers["attribution.dim_train_coverage"] = (
            inside / train_s if train_s else 0.0)
        probe_s = total["sse.probe"] * per
        for name, share in (
                ("scis.run", layers["attribution.scis_run_coverage"]),
                ("dim.train", layers["attribution.dim_train_coverage"]),
                ("sse.search", probe_s / layers["sse.search_s"]
                 if layers["sse.search_s"] > 0 else 0.0)):
            if abs(share - 1.0) > ATTRIBUTION_TOLERANCE:
                errors.append("attribution: layers cover %.3f of %s" % (share, name))
        pass_s = info.get("traced_pass_seconds", 0.0)
        if pass_s and abs(run_s * passes / pass_s - 1.0) > ATTRIBUTION_TOLERANCE:
            errors.append("attribution: scis.run spans disagree with pass wall time")

    rows = info.get("engine_rows", 0.0)
    if rows:
        layers["serve.engine_us_per_row"] = total["serve.engine.impute"] / rows
    layers["index.search_s"] = total["index.search"] * us
    return layers, errors


def fmt(v):
    return "%.6g" % v


def print_report(workload, raw, metrics, units):
    """Human-readable lines, with the wall-clock figures (scis_wall_s,
    req_p*_ms, rows_per_s, max_rate_rps) printed beside the metrics."""
    print("workload %s: attempted %d, failed %d, fail_ratio %s" % (
        workload, raw["attempted"], raw["failed"],
        fmt(raw["failed"] / max(1, raw["attempted"]))))
    for name in sorted(metrics):
        print("  %-40s %14s %s" % (name, fmt(metrics[name]), units[name]))
    info = raw["info"]
    if "setup_cpu_s" in info:
        print("  raw (not normalised for host speed): setup %s s CPU, %s s wall"
              % (fmt(info["setup_cpu_s"]), fmt(info["setup_wall_s"]))
              + ("; %s ms CPU per op" % fmt(info["cpu_ms"]) if "cpu_ms" in info else ""))
    if workload.startswith("scis_") and "wall_ms" in info:
        print("  scis_wall_s = %s s, rows_per_s = %s rows/s over %d passes of "
              "%d divisions (mean n* = %d)" % (
                  fmt(info["wall_ms"] / 1e3), fmt(info["rows_per_s"]),
                  info["passes"], info["divisions"], info["n_star"]))
    if workload == "serve_open" and "reference_p50_ms" in info:
        print("  req_p50_ms = %s ms, req_p90_ms = %s ms, req_p99_ms = %s ms "
              "at %d req/s (%d samples)" % (
                  fmt(info["reference_p50_ms"]), fmt(info["reference_p90_ms"]),
                  fmt(info["reference_p99_ms"]), info["reference_rate_rps"],
                  info.get("reference_samples", 0)))
        print("  max_rate_rps = %s 1/s (p99 limit %s ms)" % (
            fmt(info["max_rate_rps"]), fmt(info["limit_ms"])))
        k = 0
        while "rung%d.rate_rps" % k in info:
            r = lambda key: info["rung%d.%s" % (k, key)]
            print("    rate %6d/s: sent %6d ok %6d failed %d p50 %s ms p99 %s ms "
                  "generator lag p99 %s ms" % (
                      r("rate_rps"), r("sent"), r("ok"), r("failed"),
                      fmt(r("p50_ms")), fmt(r("p99_ms")), fmt(r("lag_p99_ms"))))
            k += 1
    if workload == "serve_bulk" and "p50_ms" in info:
        print("  req_p50_ms = %s ms, req_p90_ms = %s ms, req_p99_ms = %s ms "
              "per round trip (%d samples), rows_per_s = %s rows/s" % (
                  fmt(info["p50_ms"]), fmt(info["p90_ms"]), fmt(info["p99_ms"]),
                  info.get("samples", 0), fmt(info["rows_per_s"])))
    for err in raw["errors"]:
        print("  CHECK FAILED: " + err)


def run(args):
    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    trace_path = os.path.join(BUILD, "trace-%s-%d.json" % (args.workload, os.getpid()))
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("measuring program timed out", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("measuring program exited with %d" % proc.returncode, 1)
    raw = json.loads(lines[-1])

    if args.trace:
        try:
            layers, errors = span_layers(load_spans(trace_path), raw)
        finally:
            if os.path.exists(trace_path):
                os.remove(trace_path)
        raw["errors"] += errors
        merged = dict(raw["layers"])
        merged.update(layers)
        if raw["info"].get("trace_dropped", 0):
            raw["errors"].append("trace dropped spans")
        # Layers a workload does not exercise read 0: the prediction there
        # is no change.
        metrics = {k: merged.get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
    else:
        missing = [k for k in END_TO_END if k not in raw["e2e"]]
        if missing:
            raw["errors"].append("missing end-to-end metrics: " + ", ".join(missing))
        metrics = {k: raw["e2e"].get(k, 0.0) for k in END_TO_END}
        units = END_TO_END

    correct = raw["correct"] and not raw["errors"]
    print_report(args.workload, raw, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def self_test():
    """Runs the C++ helper tests and the span-nesting tests, and checks that
    BENCHMARK.json lists exactly the metrics this script prints."""
    build()
    if subprocess.call([os.path.join(BUILD, "perfbench_test")]) != 0:
        return 1
    # Nesting: parent 0..100 with children 10..30 and 40..90, the second
    # holding a grandchild 50..60; a span on another thread is separate.
    spans = nest([Span("p", 1, 0, 100), Span("a", 1, 10, 20),
                  Span("b", 1, 40, 50), Span("c", 1, 50, 10),
                  Span("q", 2, 5, 10)])
    selfs = {s.name: s.self for s in spans}
    ok = selfs == {"p": 30, "a": 20, "b": 40, "c": 10, "q": 10}
    ok = ok and ancestor(spans[3], "p") is spans[0] and spans[4].parent is None
    # Back-to-back siblings sharing an edge are not nested.
    sib = nest([Span("x", 1, 0, 10), Span("y", 1, 10, 10)])
    ok = ok and sib[1].parent is None and sib[0].self == 10
    print("span nesting: " + ("ok" if ok else "FAILED"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    listed_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    listed_workloads = {w["name"] for w in bench["workloads"]}
    consistent = (listed_e2e == END_TO_END and listed_layer == PER_LAYER
                  and listed_workloads <= set(WORKLOADS))
    print("BENCHMARK.json consistency: " + ("ok" if consistent else "FAILED"))
    return 0 if ok and consistent else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
