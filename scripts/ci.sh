#!/usr/bin/env bash
# Pre-merge gate and nightly driver (see TESTING.md).
#
#   scripts/ci.sh            # tier-1 gate: build default preset, ctest -L tier1
#   scripts/ci.sh nightly    # long fuzz at high iteration counts, plain and
#                            # under the tsan and asan presets, then all of
#                            # tier 1 under asan
#
# Requires cmake >= 3.21 (presets). Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-tier1}"
JOBS="${JOBS:-$(nproc)}"

case "$MODE" in
  tier1)
    # Lint: Reconstruct is const and imputes without touching training
    # state, so no model may cast its constness away.
    if grep -rn const_cast src/models; then
      echo "const_cast in src/models (see above)" >&2
      exit 1
    fi
    # Lint: Reconstruct imputes without a tape, so no model builds a local
    # one (training uses the persistent step tapes held as members).
    if grep -rnE '\bTape [a-z_]+;' src/models --include='*.cc'; then
      echo "local Tape in src/models (see above)" >&2
      exit 1
    fi
    # Lint: linear.cc is compiled with the very-cheap vectorizer cost model
    # (src/kernels/CMakeLists.txt), which leaves a per-element activation
    # scalar; activations belong in the elementwise.cc pass (ActInPlace).
    if grep -nE 'SigmoidD|ExpD|tanh|Act::' src/kernels/linear.cc; then
      echo "activation code in src/kernels/linear.cc (see above)" >&2
      exit 1
    fi
    # Lint: the mask-aware kNN scan lives in src/index (AnnIndex), on the
    # kernels in src/kernels; no other module may grow a second one.
    if grep -rln '"kernels/masked_distance.h"' src \
        | grep -vE '^src/(index|kernels)/'; then
      echo "kernels/masked_distance.h outside src/index, src/kernels" \
        "(see above)" >&2
      exit 1
    fi
    # Lint: test-only helpers live in src/testkit; no library, example or
    # bench code may include them.
    if grep -rn '#include "testkit/' src examples bench perfbench \
        | grep -v '^src/testkit/'; then
      echo "testkit include outside src/testkit and tests (see above)" >&2
      exit 1
    fi
    echo "lint: OK (no const_cast and no local Tape in src/models," \
      "no activation in src/kernels/linear.cc, no masked-distance scan" \
      "outside src/index, no testkit include outside src/testkit and" \
      "tests)"

    cmake --preset default >/dev/null
    cmake --build --preset default -j "$JOBS"
    ctest --preset tier1 -j "$JOBS"

    # Serving loopback smoke test: train a tiny model, save its checkpoint
    # and an ANN index over its training rows, serve it (mmap-ed,
    # zero-copy) over TCP, impute through scis_client, and require the
    # served CSV to be byte-identical to the offline scis_impute output.
    # Served twice: plain, stopped by a client --shutdown; and with the
    # index attached at retrieval blend 0, where every row still goes
    # through AnnIndex::Search but the blend (1·h + 0·mean) leaves the
    # generator output exactly, stopped by SIGTERM. Either way the server
    # must exit 0 and write its --report-out.
    SMOKE="$(mktemp -d)"
    trap 'rm -rf "$SMOKE"' EXIT
    ./build/examples/scis_datagen --dataset Trial --scale 0.005 \
      --output "$SMOKE/tiny.csv" >/dev/null
    ./build/examples/scis_impute --input "$SMOKE/tiny.csv" \
      --output "$SMOKE/offline.csv" --method SCIS-GAIN --epochs 2 --n0 32 \
      --seed 3 --save_params "$SMOKE/model.bin" \
      --save_index "$SMOKE/train.annidx" >/dev/null
    start_serve() {  # start_serve <name> <flags...>; sets serve_pid
      local name="$1"
      shift
      rm -f "$SMOKE/serve.port"
      ./build/examples/scis_serve --params "$SMOKE/model.bin" "$@" \
        --port 0 --port_file "$SMOKE/serve.port" \
        --report-out "$SMOKE/$name.report.json" >"$SMOKE/$name.log" &
      serve_pid=$!
      for _ in $(seq 50); do
        [ -s "$SMOKE/serve.port" ] && break
        sleep 0.1
      done
    }
    impute_served() {  # impute_served <output csv>
      ./build/examples/scis_client --port_file "$SMOKE/serve.port" --ping \
        --input "$SMOKE/tiny.csv" --output "$1" --rows_per_request 3 \
        >/dev/null
    }
    stop_serve() {  # stop_serve <name> <shutdown|sigterm>
      local name="$1" stop="$2"
      if [ "$stop" = sigterm ]; then
        kill -TERM "$serve_pid"
      else
        ./build/examples/scis_client --port_file "$SMOKE/serve.port" \
          --shutdown >/dev/null
      fi
      for _ in $(seq 100); do
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.1
      done
      if kill -0 "$serve_pid" 2>/dev/null; then
        echo "scis_serve ($name) still running 10 s after $stop" >&2
        kill -KILL "$serve_pid"
        exit 1
      fi
      wait "$serve_pid"  # a non-zero exit status fails the script
      python3 -m json.tool "$SMOKE/$name.report.json" >/dev/null
    }
    serve_and_cmp() {  # serve_and_cmp <name> <shutdown|sigterm> <flags...>
      local name="$1" stop="$2"
      shift 2
      start_serve "$name" "$@"
      impute_served "$SMOKE/$name.csv"
      stop_serve "$name" "$stop"
      cmp "$SMOKE/offline.csv" "$SMOKE/$name.csv"
    }
    serve_and_cmp served shutdown
    serve_and_cmp served_retrieval sigterm --index "$SMOKE/train.annidx" \
      --retrieval_blend 0
    echo "serve loopback smoke: OK (plain, and retrieval at blend 0" \
      "stopped by SIGTERM; v3 mmap ckpt, served == offline)"

    # A SIGHUP reload keeps retrieval on: at blend 0.5 (served != offline),
    # the output after reloading the unchanged checkpoint must equal the
    # output before it. The server prints "reload <path>: swapped" once the
    # new engine is in.
    start_serve served_reload --index "$SMOKE/train.annidx" \
      --retrieval_blend 0.5
    impute_served "$SMOKE/reload_before.csv"
    kill -HUP "$serve_pid"
    for _ in $(seq 100); do
      grep -q ': swapped$' "$SMOKE/served_reload.log" && break
      sleep 0.1
    done
    if ! grep -q ': swapped$' "$SMOKE/served_reload.log"; then
      echo "scis_serve did not report a swap 10 s after SIGHUP" >&2
      kill -KILL "$serve_pid"
      exit 1
    fi
    impute_served "$SMOKE/reload_after.csv"
    stop_serve served_reload sigterm
    cmp "$SMOKE/reload_before.csv" "$SMOKE/reload_after.csv"
    echo "serve reload smoke: OK (retrieval at blend 0.5 survives SIGHUP)"

    # Usage errors exit 1 with a message: a numeric flag out of range
    # (instead of aborting (134) inside BatchQueue), and --lifecycle with
    # --index (a drift swap would turn retrieval off).
    expect_usage_error() {  # expect_usage_error <flags...>
      local rc=0
      ./build/examples/scis_serve --params "$SMOKE/model.bin" "$@" \
        >/dev/null || rc=$?
      if [ "$rc" -ne 1 ]; then
        echo "scis_serve $* exited $rc, want 1" >&2
        exit 1
      fi
    }
    expect_usage_error --max_batch_rows 0
    expect_usage_error --lifecycle --lifecycle_dir "$SMOKE/lc" \
      --index "$SMOKE/train.annidx"
    echo "serve flag validation: OK (--max_batch_rows 0 and" \
      "--lifecycle --index exit 1)"

    # Perf smoke: the kernel bench sweep must run to completion and emit a
    # parseable json (quick mode — small sizes, short timing windows; the
    # committed baseline in bench/BENCH_kernels.json is full mode).
    ./build/bench/micro_kernels --bench-json="$SMOKE/bench.json" --quick \
      >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-kernels-v1' and d['kernels'], d" \
      "$SMOKE/bench.json"
    echo "kernel bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['kernels']))" "$SMOKE/bench.json") kernels)"

    # Index perf smoke: the ANN build/query sweep must complete, stay
    # bit-identical across 1/2/4 threads, and emit a parseable json (quick
    # mode; the committed full-mode baseline is bench/BENCH_index.json).
    ./build/bench/index_build_query --quick --queries 200 \
      --bench-json="$SMOKE/bench_index.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-index-v1' and d['sweep'], d; \
assert all(p['bit_identical_1_2_4_threads'] for p in d['sweep']), d" \
      "$SMOKE/bench_index.json"
    echo "index bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['sweep']))" "$SMOKE/bench_index.json") sweep points)"

    # Serve perf smoke: the connections TCP sweep must complete,
    # every cell must be bit-identical to the offline engine, and the json
    # must parse (quick mode; the committed full-mode baseline is
    # bench/BENCH_serve.json).
    ./build/bench/serve_latency --quick \
      --bench-json="$SMOKE/bench_serve.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-serve-v2' and d['sweep'], d; \
assert all(p['bit_identical'] for p in d['sweep']), d" \
      "$SMOKE/bench_serve.json"
    echo "serve bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['sweep']))" "$SMOKE/bench_serve.json") sweep points, all bit-identical)"

    # Continuous-learning loop smoke: the scis_lifecycle demo runs the full
    # feed -> SSE drift check -> retrain-at-n* -> hot-swap loop against a
    # live server at 1/2/4 worker threads and exits non-zero unless
    # every run is bit-identical with zero dropped or failed requests.
    ./build/examples/scis_lifecycle --workdir "$SMOKE/lifecycle" \
      --report-out "$SMOKE/lifecycle_report.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
cfg=d['config']; \
assert cfg['bit_identical_1_2_4_threads'] is True, cfg; \
assert cfg['generation'] == 1 and cfg['n_star'] > 0, cfg" \
      "$SMOKE/lifecycle_report.json"
    echo "lifecycle loop smoke: OK (drift -> retrain -> swap, bit-identical at 1/2/4 threads)"

    # Lifecycle perf smoke: the store/controller sweep must complete with a
    # published generation at every point and emit a parseable json (quick
    # mode; the committed full-mode baseline is bench/BENCH_lifecycle.json).
    ./build/bench/lifecycle_loop --quick \
      --bench-json="$SMOKE/bench_lifecycle.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-lifecycle-v1' and d['sweep'], d; \
assert all(p['swapped'] and p['n_star'] > 0 for p in d['sweep']), d" \
      "$SMOKE/bench_lifecycle.json"
    echo "lifecycle bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['sweep']))" "$SMOKE/bench_lifecycle.json") sweep points, all swapped)"

    # Committed lifecycle baseline sanity: the checked-in full-mode sweep
    # must parse and show the loop completing (swap published) everywhere.
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-lifecycle-v1' and d['mode']=='full', d; \
assert all(p['swapped'] and p['n_star'] > 0 for p in d['sweep']), d" \
      bench/BENCH_lifecycle.json
    echo "lifecycle baseline: OK (bench/BENCH_lifecycle.json, all points swapped)"
    ;;
  nightly)
    # High iteration counts: the nightly executable scales its property
    # loops with SCIS_NIGHTLY_ITERS (default 200 keeps plain `ctest` fast).
    export SCIS_NIGHTLY_ITERS="${SCIS_NIGHTLY_ITERS:-2000}"
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$JOBS"
    ctest --preset nightly -j "$JOBS"
    for SAN in tsan asan; do
      cmake --preset "$SAN" >/dev/null
      cmake --build --preset "$SAN" -j "$JOBS"
      ctest --preset "nightly-$SAN" -j "$JOBS"
    done
    # All of tier 1 under ASan+UBSan (UBSan reports are fatal there).
    ctest --preset asan -j "$JOBS"
    ;;
  *)
    echo "usage: scripts/ci.sh [tier1|nightly]" >&2
    exit 2
    ;;
esac
