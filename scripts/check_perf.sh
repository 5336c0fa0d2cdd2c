#!/usr/bin/env bash
# Perf-regression gate for the hot-path kernels.
#
# Runs the gated subset of bench_perf_microbench (Ryser permanent at
# n=20/22/24, explicit CSR graph build + Hopcroft-Karp, the AssessRisk
# δ-bisection macro-bench, serve's cold load_dataset ingest of a
# CONNECT ×0.05 stand-in, and eight sweeps of the MCMC matching walk at
# n=8192), emits BENCH_kernels.json at the
# repo root, and compares each kernel's cpu time against the checked-in
# baseline in bench/perf_baseline.json with a ±15% gate:
#
#   * >15% slower than baseline  -> FAIL (regression);
#   * >15% faster than baseline  -> OK, but prints a hint to rebaseline
#     so future regressions are measured from the new, better number.
#
# The baseline file also carries `pre_opt_ns`: the same kernels measured
# on the pre-optimization tree (vector<vector> adjacency, unmasked
# Ryser, per-call allocation, per-probe re-stabbing; for BM_LoadDataset,
# the line-at-a-time stream FIMI parser with its copies of the content).
# BENCH_kernels.json reports speedup_vs_pre_opt = pre_opt / current for
# each kernel.
#
# The kernels are ISA-dispatched (scalar / AVX2 / AVX-512, see
# docs/PERFORMANCE.md "SIMD dispatch"), so timings from different ISA
# tiers are not comparable. The bench binary embeds the active tier and
# CPU model in its JSON context; the baseline records the tier it was
# taken on, and the gate refuses to compare across tiers (rebaseline
# instead). On any non-scalar tier, BM_Permanent/24 must additionally
# hold >= 3x over pre_opt_ns — the SIMD acceptance floor.
#
# After the main gate, a per-ISA sweep re-runs BM_Permanent/24 under
# each ANONSAFE_FORCE_ISA tier the host supports and appends an
# "isa_sweep" section to BENCH_kernels.json (informational).
#
# Usage:
#   scripts/check_perf.sh [--rebaseline] [path/to/bench_perf_microbench]
#
# --rebaseline rewrites baseline_ns (and the recorded isa/cpu_model) in
# bench/perf_baseline.json from this run (pre_opt_ns is preserved).
# Timings are wall-machine-specific: rebaseline whenever the harness
# moves to different hardware or a different SIMD tier.
#
# After the kernel gate it runs bench_serve (the epoll serve load
# harness: 1k+ concurrent connections with p50/p95/p99 and req/s, plus
# the assess_risk_batch amortization + bit-identity gates) and emits
# BENCH_serve.json; the load phase self-skips when the sandbox has no
# loopback TCP.
#
# Next comes bench_defense (the RecommendDefense sweep on the CONNECT
# stand-in): the frontier must be byte-identical between the sequential
# and the all-cores run and non-empty; the speedup is informational.
# Emits BENCH_defense.json.
#
# Then bench_adversary (the Figure 8 recipe once per registered
# adversary on the bisection fixture): results must be bit-identical
# across thread counts and the default interval adversary must hold
# within 1.5x of the BM_AssessRiskBisection/8192 baseline — the
# registry indirection must not tax the historical hot path. Emits
# BENCH_adversary.json.
#
# It then runs bench_planner (the block-decomposed
# estimator against the monolithic direct method, docs/ESTIMATORS.md)
# and emits BENCH_planner.json with the measured speedups. The planner
# section is informational — decomposition speedups are structural
# (orders of magnitude), so a ±15% timing gate would be noise; instead
# it hard-fails if the planner stopped being exact on the fixture or if
# the beyond-cutoff instance (n = 48 > kMaxPermanentN, largest block 12)
# lost its exact provenance-tagged answer.
#
# Every section runs, in this order: kernels (the gate, then the per-ISA
# sweep), serve, defense, adversary, planner. A failing gate stops only
# its own section; the script then goes on with the next one and exits
# non-zero at the end, naming every section that failed.
set -euo pipefail
cd "$(dirname "$0")/.."

REBASELINE=0
if [[ "${1:-}" == "--rebaseline" ]]; then
  REBASELINE=1
  shift
fi
BENCH="${1:-build/bench/bench_perf_microbench}"
PLANNER_BENCH="${PLANNER_BENCH:-build/bench/bench_planner}"
BASELINE="bench/perf_baseline.json"
OUT="BENCH_kernels.json"

if [[ ! -x "$BENCH" ]]; then
  echo "check_perf: bench binary not found at $BENCH (build first)" >&2
  exit 1
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "check_perf: SKIP (python3 unavailable for JSON parsing)" >&2
  exit 0
fi

section_kernels() {
FILTER='BM_Permanent/(20|22|24)$|BM_PermanentBatch/12$|BM_SamplerProbe/8192$|BM_SamplerSweep/8192$|BM_GraphBuildHK/4096$|BM_AssessRiskBisection/8192$|BM_LoadDataset$'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Three repetitions; the median is what gets gated, so one descheduled
# repetition cannot fail the build.
"$BENCH" \
  --benchmark_filter="$FILTER" \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"$raw"

python3 - "$raw" "$BASELINE" "$OUT" "$REBASELINE" <<'PY'
import json, sys

raw_path, baseline_path, out_path, rebaseline = sys.argv[1:5]
rebaseline = rebaseline == "1"
TOLERANCE = 0.15  # the ±15% gate

with open(raw_path) as f:
    raw = json.load(f)

ctx = raw.get("context", {})
isa = ctx.get("anonsafe_simd_isa", "unknown")
cpu_model = ctx.get("anonsafe_cpu_model", "unknown")
print(f"check_perf: simd_isa={isa} cpu_model={cpu_model}")

current = {}
for b in raw["benchmarks"]:
    if b.get("aggregate_name") != "median":
        continue
    name = b["run_name"]
    assert b["time_unit"] == "ns", f"unexpected time unit for {name}"
    current[name] = b["cpu_time"]
if not current:
    sys.exit("check_perf: FAIL: benchmark filter matched nothing")

try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except FileNotFoundError:
    baseline = {"baseline_ns": {}, "pre_opt_ns": {}}

# Timings from different SIMD tiers are not comparable: a baseline taken
# on avx512 would flag a healthy scalar run as a 10x regression (and an
# avx512 run would sail past a scalar baseline while regressing within
# its own tier). Refuse the comparison instead of gating on noise.
base_isa = baseline.get("isa")
if base_isa is not None and base_isa != isa and not rebaseline:
    sys.exit(f"check_perf: FAIL: baseline was recorded on isa={base_isa} "
             f"but this run uses isa={isa}; cross-ISA timings are not "
             f"comparable. Re-run scripts/check_perf.sh --rebaseline on "
             f"this tier (or unset ANONSAFE_FORCE_ISA).")

report = {
    "note": "medians of 3 repetitions; cpu_time in ns; gate is +/-15% "
            "vs bench/perf_baseline.json",
    "simd_isa": isa,
    "cpu_model": cpu_model,
    "kernels": {},
}
failures = []
faster = []
for name in sorted(current):
    cur = current[name]
    entry = {"cpu_time_ns": round(cur, 1)}
    base = baseline.get("baseline_ns", {}).get(name)
    if base is not None:
        ratio = cur / base
        entry["baseline_ns"] = base
        entry["vs_baseline"] = round(ratio, 3)
        if ratio > 1.0 + TOLERANCE:
            failures.append(f"{name}: {cur:.0f}ns vs baseline {base:.0f}ns "
                            f"({(ratio - 1) * 100:+.1f}%)")
        elif ratio < 1.0 - TOLERANCE:
            faster.append(name)
    pre = baseline.get("pre_opt_ns", {}).get(name)
    if pre is not None:
        entry["pre_opt_ns"] = pre
        entry["speedup_vs_pre_opt"] = round(pre / cur, 2)
    report["kernels"][name] = entry

# SIMD acceptance floor: whenever a vector tier is active, the flagship
# Ryser kernel must hold at least 3x over the pre-optimization tree.
# (Scalar runs are exempt — the floor measures the SIMD lanes, not the
# earlier bitmask-layout work.)
hard_failures = []
perm24 = report["kernels"].get("BM_Permanent/24")
if isa not in ("scalar", "unknown") and perm24 is not None:
    speedup = perm24.get("speedup_vs_pre_opt")
    if speedup is not None and speedup < 3.0:
        hard_failures.append(f"BM_Permanent/24 on isa={isa}: only {speedup}x "
                             f"vs pre-opt (SIMD floor: >= 3x)")

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

if rebaseline:
    baseline["baseline_ns"] = {k: round(v, 1) for k, v in current.items()}
    baseline["isa"] = isa
    baseline["cpu_model"] = cpu_model
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"check_perf: rebaselined {baseline_path} from this run "
          f"(isa={isa})")

for name, e in report["kernels"].items():
    speed = (f"  ({e['speedup_vs_pre_opt']}x vs pre-opt)"
             if "speedup_vs_pre_opt" in e else "")
    delta = (f"  [{(e['vs_baseline'] - 1) * 100:+.1f}% vs baseline]"
             if "vs_baseline" in e else "  [no baseline]")
    print(f"check_perf: {name}: {e['cpu_time_ns']:.0f}ns{delta}{speed}")

# The SIMD floor is vs pre_opt_ns, which never rebaselines, so it gates
# even on a --rebaseline run.
if hard_failures or (failures and not rebaseline):
    for msg in hard_failures + ([] if rebaseline else failures):
        print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)
if faster:
    print(f"check_perf: note: {', '.join(faster)} now >15% faster than "
          f"baseline; consider scripts/check_perf.sh --rebaseline")
print(f"check_perf: OK ({out_path} written)")
PY

# -------------------------------------------------------- per-ISA sweep
# Informational: re-run the flagship kernel once under each forced tier
# so BENCH_kernels.json records the scalar/AVX2/AVX-512 spread on this
# host. Forcing a tier the host (or build) lacks clamps downward with a
# warning, so entries are deduplicated by the tier the binary actually
# reports. Single repetition — the spread (1x vs 4x vs 13x) dwarfs
# run-to-run noise, and scalar n=24 costs ~1s per pass.
sweep_dir="$(mktemp -d)"
trap 'rm -f "$raw"; rm -rf "$sweep_dir"' EXIT
for isa in scalar avx2 avx512; do
  ANONSAFE_FORCE_ISA="$isa" "$BENCH" \
    --benchmark_filter='BM_Permanent/24$' \
    --benchmark_format=json >"$sweep_dir/$isa.json" || true
done
python3 - "$OUT" "$BASELINE" "$sweep_dir"/*.json <<'PY'
import json, sys

out_path, baseline_path = sys.argv[1:3]
with open(out_path) as f:
    report = json.load(f)
try:
    with open(baseline_path) as f:
        pre = json.load(f).get("pre_opt_ns", {}).get("BM_Permanent/24")
except FileNotFoundError:
    pre = None

sweep = {}
for path in sys.argv[3:]:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError):
        continue
    isa = raw.get("context", {}).get("anonsafe_simd_isa", "unknown")
    if isa in sweep:
        continue  # forced tier clamped down to one already measured
    for b in raw.get("benchmarks", []):
        if b.get("run_name") == "BM_Permanent/24":
            entry = {"cpu_time_ns": round(b["cpu_time"], 1)}
            if pre is not None:
                entry["speedup_vs_pre_opt"] = round(pre / b["cpu_time"], 2)
            sweep[isa] = entry

report["isa_sweep"] = {
    "note": "BM_Permanent/24 under each ANONSAFE_FORCE_ISA tier this "
            "host supports; single repetition, informational",
    "BM_Permanent/24": sweep,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
for isa, e in sorted(sweep.items()):
    speed = (f"  ({e['speedup_vs_pre_opt']}x vs pre-opt)"
             if "speedup_vs_pre_opt" in e else "")
    print(f"check_perf: isa sweep {isa}: {e['cpu_time_ns']:.0f}ns{speed}")
PY
}

# ---------------------------------------------------- serve load harness
# bench_serve drives the epoll event loop with 1k+ concurrent loopback
# connections and measures the assess_risk_batch amortization claim.
# Gates: >=1000 connections served with zero errors (vacuous when the
# sandbox has no loopback TCP), batch-of-16 < 3x one assess_risk, and
# batch items bit-identical to sequential singles. Emits
# BENCH_serve.json.
section_serve() {
SERVE_BENCH="${SERVE_BENCH:-build/bench/bench_serve}"
if [[ -x "$SERVE_BENCH" ]]; then
  serve_raw="$(mktemp)"
  "$SERVE_BENCH" >"$serve_raw"
  python3 - "$serve_raw" "BENCH_serve.json" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1:3]
with open(raw_path) as f:
    report = json.load(f)
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

failures = []
if report.get("skipped"):
    print("check_perf: serve load phase SKIP "
          f"({report.get('skip_reason', 'loopback TCP unavailable')})")
else:
    lat = report["latency"]
    print(f"check_perf: serve: {report['connections']} connections, "
          f"{report['requests']} requests, {report['rps']:.0f} req/s, "
          f"p50 {lat['p50_ms']:.1f}ms / p95 {lat['p95_ms']:.1f}ms / "
          f"p99 {lat['p99_ms']:.1f}ms")
    if report["connections"] < 1000:
        failures.append(f"only {report['connections']} connections "
                        "(expected >= 1000)")
    if report["errors"] != 0:
        failures.append(f"{report['errors']} request errors under load")

# The batch phase runs in-process, so it gates even without TCP.
b = report["batch"]
print(f"check_perf: serve batch: single {b['single_ms']:.2f}ms vs "
      f"batch-of-{b['items']} {b['batch16_ms']:.2f}ms "
      f"({b['ratio_vs_single']:.2f}x), bit_identical="
      f"{str(b['bit_identical']).lower()}")
if b["ratio_vs_single"] >= 3.0:
    failures.append(f"batch-of-16 is {b['ratio_vs_single']:.2f}x a single "
                    "assess_risk (gate: < 3x)")
if not b["bit_identical"]:
    failures.append("batch items not bit-identical to sequential singles")

if failures:
    for msg in failures:
        print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: OK ({out_path} written)")
PY
  rm -f "$serve_raw"
else
  echo "check_perf: serve SKIP ($SERVE_BENCH not built)" >&2
fi
}

# ---------------------------------------------- defense sweep harness
# bench_defense runs the full RecommendDefense sweep on the CONNECT
# stand-in, once sequentially and once at all cores. Gate: the two
# frontier documents are byte-identical and the frontier is non-empty;
# the thread speedup is recorded informationally (coarse-grained sweep,
# machine-dependent). Emits BENCH_defense.json.
section_defense() {
DEFENSE_BENCH="${DEFENSE_BENCH:-build/bench/bench_defense}"
if [[ -x "$DEFENSE_BENCH" ]]; then
  defense_raw="$(mktemp)"
  "$DEFENSE_BENCH" >"$defense_raw" \
    || { echo "check_perf: FAIL: bench_defense exited non-zero (frontier \
not bit-identical across thread counts?)" >&2; rm -f "$defense_raw"; exit 1; }
  python3 - "$defense_raw" "BENCH_defense.json" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1:3]
with open(raw_path) as f:
    report = json.load(f)
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

failures = []
print(f"check_perf: defense: {report['candidates']} candidates "
      f"({report['feasible']} feasible) on {report['num_items']} items / "
      f"{report['num_transactions']} transactions, frontier "
      f"{report['frontier_size']}, t1 {report['t1_ms']:.0f}ms vs "
      f"t{report['threads']} {report['tN_ms']:.0f}ms "
      f"({report['speedup']:.2f}x), bit_identical="
      f"{str(report['bit_identical']).lower()}")
if not report["bit_identical"]:
    failures.append("frontier not bit-identical across thread counts")
if report["frontier_size"] == 0:
    failures.append("empty Pareto frontier on the CONNECT stand-in")
if report["feasible"] == 0:
    failures.append("no feasible defense candidates")

if failures:
    for msg in failures:
        print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: OK ({out_path} written)")
PY
  rm -f "$defense_raw"
else
  echo "check_perf: defense SKIP ($DEFENSE_BENCH not built)" >&2
fi
}

# ------------------------------------------- adversary registry harness
# bench_adversary runs the Figure 8 recipe once per registered adversary
# on the BM_AssessRiskBisection/8192 fixture. Gates: every adversary's
# result is bit-identical between 1 and 8 threads, and the default
# interval adversary — which now routes through the registry — holds
# within 1.5x of the BM_AssessRiskBisection/8192 kernel baseline (the
# headroom covers wall-clock-vs-cpu-time and harness noise; a real
# registry-indirection regression on the bisection hot path is what it
# catches). Non-default adversaries are informational (vs_interval
# overhead ratio). Emits BENCH_adversary.json.
section_adversary() {
ADVERSARY_BENCH="${ADVERSARY_BENCH:-build/bench/bench_adversary}"
if [[ -x "$ADVERSARY_BENCH" ]]; then
  adversary_raw="$(mktemp)"
  "$ADVERSARY_BENCH" >"$adversary_raw" \
    || { echo "check_perf: FAIL: bench_adversary exited non-zero (adversary \
results not bit-identical across thread counts?)" >&2
         rm -f "$adversary_raw"; exit 1; }
  python3 - "$adversary_raw" "$BASELINE" "BENCH_adversary.json" <<'PY'
import json, sys

raw_path, baseline_path, out_path = sys.argv[1:4]
with open(raw_path) as f:
    report = json.load(f)
try:
    with open(baseline_path) as f:
        base_ns = json.load(f).get("baseline_ns", {}) \
                      .get("BM_AssessRiskBisection/8192")
except FileNotFoundError:
    base_ns = None

failures = []
interval = report["adversaries"].get("interval")
if interval is None:
    failures.append("interval adversary missing from bench_adversary output")
elif base_ns is not None:
    ratio = (interval["median_ms"] * 1e6) / base_ns
    interval["vs_bisection_baseline"] = round(ratio, 3)
    if ratio > 1.5:
        failures.append(
            f"interval adversary AssessRisk {interval['median_ms']:.1f}ms is "
            f"{ratio:.2f}x the BM_AssessRiskBisection/8192 baseline "
            f"({base_ns / 1e6:.1f}ms); gate: <= 1.5x — the registry "
            f"indirection regressed the default hot path")

for name, e in report["adversaries"].items():
    print(f"check_perf: adversary {name}: {e['median_ms']:.1f}ms "
          f"({e['vs_interval']:.2f}x vs interval), decision={e['decision']}, "
          f"thread_identical={str(e['thread_identical']).lower()}")
if not report["bit_identical"]:
    failures.append("adversary results not bit-identical across thread counts")

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

if failures:
    for msg in failures:
        print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: OK ({out_path} written)")
PY
  rm -f "$adversary_raw"
else
  echo "check_perf: adversary SKIP ($ADVERSARY_BENCH not built)" >&2
fi
}

# ------------------------------------------------ planner vs monolithic
section_planner() {
if [[ ! -x "$PLANNER_BENCH" ]]; then
  echo "check_perf: planner SKIP ($PLANNER_BENCH not built)" >&2
  exit 0
fi

planner_raw="$(mktemp)"
trap 'rm -f "$planner_raw"' EXIT

# BM_DirectMonolithic/2 pays a whole-graph n=24 permanent per item probe
# (seconds per iteration), so a single repetition is all we take.
"$PLANNER_BENCH" \
  --benchmark_format=json >"$planner_raw"

python3 - "$planner_raw" "BENCH_planner.json" <<'PY'
import json, sys

raw_path, out_path = sys.argv[1:3]
with open(raw_path) as f:
    raw = json.load(f)

runs = {}
for b in raw["benchmarks"]:
    assert b["time_unit"] == "ns", f"unexpected time unit for {b['name']}"
    runs[b["run_name"]] = b

report = {
    "note": "block-decomposed planner vs monolithic direct method on "
            "clustered fixtures (12-item blocks); cpu_time in ns",
    "pairs": {},
    "beyond_monolithic": {},
}
failures = []
for blocks in (1, 2):
    direct = runs.get(f"BM_DirectMonolithic/{blocks}/iterations:1")
    planner = runs.get(f"BM_PlannerVsMonolithic/{blocks}")
    if direct is None or planner is None:
        failures.append(f"missing pair for blocks={blocks}")
        continue
    if planner["exact"] != 1.0:
        failures.append(f"planner inexact at blocks={blocks}")
    pair = {
        "items": int(planner["items"]),
        "direct_ns": round(direct["cpu_time"], 1),
        "planner_ns": round(planner["cpu_time"], 1),
        "speedup": round(direct["cpu_time"] / planner["cpu_time"], 1),
    }
    report["pairs"][f"blocks={blocks}"] = pair
    print(f"check_perf: planner blocks={blocks}: "
          f"direct {pair['direct_ns']:.0f}ns vs planner "
          f"{pair['planner_ns']:.0f}ns ({pair['speedup']}x)")

beyond = runs.get("BM_PlannerBeyondMonolithic")
if beyond is None:
    failures.append("BM_PlannerBeyondMonolithic missing")
else:
    c = beyond
    report["beyond_monolithic"] = {
        "items": int(c["items"]),
        "largest_block": int(c["largest_block"]),
        "exact": c["exact"] == 1.0,
        "expected_cracks": c["expected_cracks"],
        "planner_ns": round(beyond["cpu_time"], 1),
    }
    # The acceptance instance: beyond the whole-graph permanent yet
    # still exact because every block fits the Ryser cutoff.
    if c["exact"] != 1.0 or c["items"] <= 26 or c["largest_block"] > 26:
        failures.append("beyond-monolithic instance lost exactness")
    print(f"check_perf: planner n={int(c['items'])} "
          f"(largest block {int(c['largest_block'])}): exact answer in "
          f"{beyond['cpu_time']:.0f}ns where the monolithic permanent "
          f"cannot run")

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

if failures:
    for msg in failures:
        print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: OK ({out_path} written)")
PY
}

# ------------------------------------------------------------ sections
# Each section runs in its own subshell under set -e, so a failure ends
# that section alone and is recorded here. (The section bodies above
# are not indented, which keeps their heredoc terminators at column 0.)
FAILED=()
for section in kernels serve defense adversary planner; do
  set +e
  ( set -e; "section_$section" )
  rc=$?
  set -e
  if (( rc != 0 )); then
    echo "check_perf: section $section failed (exit $rc)" >&2
    FAILED+=("$section")
  fi
done
if (( ${#FAILED[@]} > 0 )); then
  echo "check_perf: FAIL: ${#FAILED[@]} section(s) failed: ${FAILED[*]}" >&2
  exit 1
fi
echo "check_perf: OK (every section passed)"
