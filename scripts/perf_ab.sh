#!/usr/bin/env bash
# Alternating A/B runs of the repository benchmark (perfbench/run.py)
# between two commits, with a code-placement control.
#
#   scripts/perf_ab.sh BASE HEAD [workload...]
#
# BASE and HEAD are git commit-ish names. To measure an uncommitted tree,
# stage it and pass `$(git stash create)` as HEAD. Workloads default to the
# ones BENCHMARK.json lists.
#
# Each commit is exported with `git archive` into its own directory under
# $AB_DIR and built there by one `perfbench/run.py --self-test`. A third
# side, "pad", is BASE exported again with PAD_BYTES bytes of cold code
# (never called) appended to src/common/status.cc in that copy only: the
# same program with every later function moved. Then, per workload and per
# seed SEED0 .. SEED0+9 (ten pairs), it runs
# `perfbench/run.py --workload W --seed S --seconds T` once on each side,
# with T the `run_seconds` of BENCHMARK.json. Head runs second; base runs
# first on even pairs and last on odd ones, and pad takes the other end, so
# drift in host speed hits every side alike. Every run's output is kept in
# $AB_DIR/logs.
#
# It prints, per workload and metric, the median [q1, q3] of each side,
# the median change, and "head lower in k/N" pairs. Raw CPU per op
# (before the reference-loop normalisation) is printed next to
# norm_cpu_ms_per_op, with each side's median raw/normalised ratio. For
# both, it prints the placement shift (pad against base: code that did not
# change, moved) beside the claim: a head change counts only when its
# median gap is larger than both the base quartile spread and that shift.
# The normalisation divides by the time of perfbench's fixed reference
# loop, whose speed can depend on where the linker placed it, so the
# address of `(anonymous namespace)::ReferenceMs()` in each side's binary
# (`nm -C`) is printed too. Exits 1 if `rmse` differs between any two
# sides on a seed, if any run has a nonzero fail_ratio, or if a run fails.
#
# Environment: SEED0 (1; pick seeds the change was not tuned on) and
# AB_DIR (${TMPDIR:-/tmp}/perf_ab). A run of both workloads takes about
# 45 minutes.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,38p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
cd "$(dirname "$0")/.."
BASE_REV=$(git rev-parse --verify "$1^{commit}")
HEAD_REV=$(git rev-parse --verify "$2^{commit}")
shift 2
if [ $# -gt 0 ]; then
  WORKLOADS=("$@")
else
  mapfile -t WORKLOADS < <(python3 -c \
    "import json; [print(w['name']) for w in json.load(open('BENCHMARK.json'))['workloads']]")
fi
RUN_SECONDS=$(python3 -c \
  "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")
PAIRS=10
PAD_BYTES=1040  # cold code in the pad side; not a multiple of a cache line
SEED0="${SEED0:-1}"
AB_DIR="${AB_DIR:-${TMPDIR:-/tmp}/perf_ab}"
LOGS="$AB_DIR/logs"
mkdir -p "$LOGS"

# Exports a commit into $AB_DIR/<side> (kept across invocations while the
# commit and pad are unchanged, so its .bench_build is reused) and builds
# it. A nonzero third argument appends that many bytes of cold code to the
# exported src/common/status.cc.
prepare() {
  local side=$1 rev=$2 pad=${3:-0} dir="$AB_DIR/$1"
  if [ "$(cat "$dir/.rev" 2>/dev/null)" != "$rev pad $pad" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$rev" | tar -x -C "$dir"
    if ((pad > 0)); then
      printf '%s\n' \
        'extern "C" __attribute__((cold, used, noinline)) void ScisPerfAbPad() {' \
        "  asm volatile(\".skip $pad, 0x90\");" '}' >> "$dir/src/common/status.cc"
    fi
    echo "$rev pad $pad" > "$dir/.rev"
  fi
  echo "building $side (${rev:0:12}) in $dir"
  (cd "$dir" && python3 perfbench/run.py --self-test > "$LOGS/build-$side.txt" 2>&1) || {
    tail -20 "$LOGS/build-$side.txt"
    echo "perf_ab: $side failed to build or self-test" >&2
    exit 1
  }
}
prepare base "$BASE_REV"
prepare head "$HEAD_REV"
prepare pad "$BASE_REV" "$PAD_BYTES"

# Where the linker placed the reference loop in each side's perfbench.
reference_placement() {
  local side=$1
  local addr
  addr=$(nm -C "$AB_DIR/$side/.bench_build/perfbench" 2>/dev/null |
           awk '/\(anonymous namespace\)::ReferenceMs\(\)/ {
                  sub(/^0+/, "", $1); print "0x" $1; exit}')
  echo "$side ReferenceMs() at ${addr:-unknown (nm found no symbol)}"
}
PLACEMENT="$(reference_placement base; reference_placement head
             reference_placement pad)"
echo "$PLACEMENT"

status=0
run_one() {  # side workload seed
  local log="$LOGS/$2-$1-$3.txt"
  if ! (cd "$AB_DIR/$1" && python3 perfbench/run.py --workload "$2" \
          --seed "$3" --seconds "$RUN_SECONDS" --trace 0) > "$log" 2>&1; then
    echo "perf_ab: $1 run of $2 at seed $3 failed (see $log)" >&2
    status=1
  fi
}
for w in "${WORKLOADS[@]}"; do
  for ((i = 0; i < PAIRS; ++i)); do
    seed=$((SEED0 + i))
    echo "$w: pair $((i + 1))/$PAIRS (seed $seed)"
    if ((i % 2 == 0)); then
      run_one base "$w" "$seed"; run_one head "$w" "$seed"
      run_one pad "$w" "$seed"
    else
      run_one pad "$w" "$seed"; run_one head "$w" "$seed"
      run_one base "$w" "$seed"
    fi
  done
done

echo
echo "perf_ab: base ${BASE_REV:0:12}, head ${HEAD_REV:0:12}, pad = base +" \
  "$PAD_BYTES cold bytes, $PAIRS pairs of $RUN_SECONDS s," \
  "seeds $SEED0..$((SEED0 + PAIRS - 1))"
echo "$PLACEMENT"
python3 - "$LOGS" "$PAIRS" "$SEED0" "${WORKLOADS[@]}" <<'EOF' || status=1
import json, re, statistics, sys

logs, pairs, seed0, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
RAW = re.compile(r"; ([0-9.eE+-]+) ms CPU per op")


def load(side, w, seed):
    """(metrics, fail_ratio, correct) of one run, with the raw CPU per op
    added to the metrics; None if the run printed no result line."""
    try:
        lines = open("%s/%s-%s-%d.txt" % (logs, w, side, seed)).read().splitlines()
    except OSError:
        return None
    if not lines or not lines[-1].startswith("{"):
        return None
    res = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    raw = [float(m.group(1)) for m in map(RAW.search, lines) if m]
    if raw:
        metrics["raw_cpu_ms_per_op"] = raw[0]
    fail_ratio = res["failed"] / max(1, res["attempted"])
    return metrics, fail_ratio, res["correct"]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return med, q1, q3


ok = True
for w in workloads:
    runs = []
    for s in range(seed0, seed0 + pairs):
        b, h, p = load("base", w, s), load("head", w, s), load("pad", w, s)
        if b is None or h is None or p is None:
            print("  %s seed %d: missing result" % (w, s))
            ok = False
            continue
        runs.append((s, b, h, p))
    print("\nworkload %s: %d complete pairs" % (w, len(runs)))
    if not runs:
        continue
    names = [k for k in runs[0][1][0] if k in runs[0][2][0] and k in runs[0][3][0]]
    order = ["norm_cpu_ms_per_op", "raw_cpu_ms_per_op"]
    names = [n for n in order if n in names] + sorted(n for n in names if n not in order)
    print("  %-22s %-30s %-30s %9s %12s" % ("metric", "base median [q1, q3]",
                                            "head median [q1, q3]", "change", "head lower"))
    for n in names:
        bv = [r[1][0][n] for r in runs]
        hv = [r[2][0][n] for r in runs]
        bm, bq1, bq3 = quartiles(bv)
        hm, hq1, hq3 = quartiles(hv)
        lower = sum(1 for b, h in zip(bv, hv) if h < b)
        change = "%+.1f%%" % (100.0 * (hm - bm) / bm) if bm else "n/a"
        print("  %-22s %-30s %-30s %9s %12s" % (
            n, "%.4g [%.4g, %.4g]" % (bm, bq1, bq3),
            "%.4g [%.4g, %.4g]" % (hm, hq1, hq3), change,
            "%d/%d" % (lower, len(runs))))
        if n in order:
            pm = quartiles([r[3][0][n] for r in runs])[0]
            gap, spread, shift = abs(bm - hm), bq3 - bq1, abs(pm - bm)
            print("  %-22s placement shift (pad vs base) %+.1f%%" % (
                "", 100.0 * (pm - bm) / bm if bm else 0.0))
            print("  %-22s median gap %.4g vs base quartile spread %.4g and "
                  "placement shift %.4g: %s" % (
                      "", gap, spread, shift,
                      "gap larger than both" if gap > max(spread, shift)
                      else "not larger than both"))
        if n == "raw_cpu_ms_per_op" and "norm_cpu_ms_per_op" in names:
            ratio = lambda side: statistics.median(
                r[side][0][n] / r[side][0]["norm_cpu_ms_per_op"] for r in runs)
            print("  %-22s median raw/normalised: base %.4g, head %.4g, pad %.4g" % (
                "", ratio(1), ratio(2), ratio(3)))
    diff = [r[0] for r in runs
            if not r[1][0].get("rmse") == r[2][0].get("rmse") == r[3][0].get("rmse")]
    print("  rmse bit-identical per seed: %s" % (
        "yes" if not diff else "NO (seeds %s)" % diff))
    bad = ["%s seed %d: fail_ratio %g%s" % (side, r[0], res[1], "" if res[2] else ", check failed")
           for r in runs for side, res in (("base", r[1]), ("head", r[2]), ("pad", r[3]))
           if res[1] != 0 or not res[2]]
    print("  fail_ratio 0 and checks passed on every run: %s" % ("yes" if not bad else "NO"))
    for line in bad:
        print("    " + line)
    ok = ok and not diff and not bad
sys.exit(0 if ok else 1)
EOF
exit "$status"
