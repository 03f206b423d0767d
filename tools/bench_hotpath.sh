#!/usr/bin/env bash
# Measures the batched hot path and records the result in BENCH_hotpath.json:
#   1. builds micro_hotpath + fig06a in Release (-O2 -DNDEBUG),
#   2. runs the hot-path microbenchmarks (queue transfer, emitter routing,
#      500 LRB feeds delivering into source queues, the copying vs.
#      in-place unary drain, and the scalar-vs-batched drain whose
#      speedup is the acceptance number, target >= 1.3x) ten times each,
#      in random interleaved
#      order, and records each one's median CPU time with its quartiles;
#      speedups are ratios of medians (one run per benchmark swings up to
#      1.7x back to back on a shared host),
#   3. runs the fig06a smoke with both executors and checks the outputs are
#      byte-identical (the batching determinism contract).
#
# Usage: tools/bench_hotpath.sh [build-dir] [output-json]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-release}"
OUT_JSON="${2:-$REPO_ROOT/BENCH_hotpath.json}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_hotpath fig06a_ysb_latency

RAW_JSON="$(mktemp)"
"$BUILD_DIR/bench/micro_hotpath" \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=10 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json > "$RAW_JSON"

SEQ_OUT="$(mktemp)"
THR_OUT="$(mktemp)"
KLINK_BENCH_SMOKE=1 "$BUILD_DIR/bench/fig06a_ysb_latency" --executor=sequential > "$SEQ_OUT"
KLINK_BENCH_SMOKE=1 "$BUILD_DIR/bench/fig06a_ysb_latency" --executor=threads > "$THR_OUT"
if cmp -s "$SEQ_OUT" "$THR_OUT"; then
  DETERMINISM="identical"
else
  DETERMINISM="MISMATCH"
fi

python3 - "$RAW_JSON" "$OUT_JSON" "$DETERMINISM" "$BUILD_DIR" <<'PY'
import json
import os
import statistics
import sys

raw_path, out_path, determinism, build_dir = sys.argv[1:5]
with open(raw_path) as f:
    raw = json.load(f)

# Every repetition of a benchmark, in ns; the aggregate rows gbench adds
# are recomputed here so the quartiles come from the same runs.
SCALE = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
runs = {}
units = {}
for b in raw["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    name = b["run_name"]
    runs.setdefault(name, []).append(b["cpu_time"] * SCALE[b["time_unit"]])
    units[name] = b["time_unit"]

def summary(name):
    ns = sorted(runs[name])
    q1, med, q3 = statistics.quantiles(ns, n=4, method="inclusive")
    to_unit = 1.0 / SCALE[units[name]]
    return {
        "repetitions": len(ns),
        "median_cpu_time": med * to_unit,
        "q1_cpu_time": q1 * to_unit,
        "q3_cpu_time": q3 * to_unit,
        "time_unit": units[name],
    }

def speedup(scalar, batched):
    return round(statistics.median(runs[scalar]) /
                 statistics.median(runs[batched]), 3)

context = raw.get("context", {})
if "executable" in context:
    context["executable"] = os.path.relpath(context["executable"], build_dir)

result = {
    "description": "Batched hot-path benchmarks (see bench/micro_hotpath.cc); "
                   "drain compares the pre-batching scalar loop against the "
                   "batched ExecutionContext::RunQuery on the same pipeline; "
                   "BM_IngestToSource times 500 LRB feeds delivering one "
                   "120 ms cycle into their source queues; "
                   "unary_drain_in_place compares the copying unary drain "
                   "with the in-place one. "
                   "Each benchmark ran 10 times in random interleaved order; "
                   "times are the median CPU time with its quartiles, and "
                   "speedups are ratios of medians.",
    "context": context,
    "benchmarks": {name: summary(name) for name in sorted(runs)},
    "speedups": {
        "queue_transfer": speedup("BM_QueueScalarTransfer",
                                  "BM_QueueBatchTransfer"),
        "emitter_routing": speedup("BM_EmitterScalarRouting",
                                   "BM_EmitterBatchRouting"),
        "drain": speedup("BM_DrainScalar", "BM_DrainBatched"),
        "unary_drain_in_place": speedup("BM_UnaryDrainCopying",
                                        "BM_UnaryDrainInPlace"),
    },
    "drain_speedup_target": 1.3,
    "fig06a_smoke_sequential_vs_threads": determinism,
}
result["drain_speedup_ok"] = result["speedups"]["drain"] >= 1.3

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(json.dumps(result["speedups"], indent=2))
ok = result["drain_speedup_ok"] and determinism == "identical"
print("hot path:", "OK" if ok else "FAILED")
sys.exit(0 if ok else 1)
PY
