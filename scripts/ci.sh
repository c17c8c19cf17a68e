#!/usr/bin/env bash
# CI entry point. Stage zero is static analysis — the project-invariant lint
# engine (tools/lint/) runs before anything is compiled and fails the script
# on any non-baselined violation. Then three build/test configurations —
# Release (with -Werror), AddressSanitizer+UBSan, and ThreadSanitizer —
# perfbench self-checks on engine_chaos_tenants, trace_replay, engine_paper
# and exec_tpch, microbenchmark smoke passes whose artifacts land in
# build-release/, and a check of fig14's folded-trace snapshot. Any test
# failure or sanitizer report (sanitizers run with -fno-sanitize-recover=all)
# fails the script.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# ---------------------------------------------------------------- stage zero
# Project-invariant lint: determinism, layering, Status discipline, raw
# threads, unordered-iteration output, metric-name registry, pointer-order,
# float-merge, rng-stream, lock-annotation. Gating. lint.sh reconfigures a
# stale compile_commands.json first, so the AST pass (when clang.cindex is
# installed) and the clang-tidy gate below see the current tree.
echo "=== lint (stage 0) ==="
./scripts/lint.sh

# The selftest runs twice: once in the ambient environment (AST mode when
# libclang is importable) and once with the AST layer forced off, pinning
# the contract that degraded token-level findings are a subset of AST-mode
# findings — an environment without libclang loses recall, not soundness.
echo "=== lint selftest (ambient, then forced degraded) ==="
python3 tools/lint/selftest.py
CACKLE_LINT_NO_CLANG=1 python3 tools/lint/selftest.py

# NOLINT suppression audit: the justified-suppression inventory is a count
# ratchet against the committed baseline, so suppressions cannot silently
# accumulate; adding one means consciously regenerating the baseline in the
# same review.
echo "=== suppression audit (count ratchet) ==="
python3 tools/lint/cackle_lint.py --root . --suppressions \
  --suppressions-baseline tools/lint/suppressions_baseline.txt

# Gating clang-tidy over the curated families (bugprone-*, concurrency-*,
# performance-move-*) with a committed fingerprint baseline; the full
# .clang-tidy profile stays advisory. Self-skips with a notice when
# clang-tidy is absent (this repo's supported toolchain is GCC-only).
echo "=== clang-tidy gate (curated subset) ==="
python3 tools/lint/clang_tidy_gate.py --root . \
  --baseline tools/lint/clang_tidy_baseline.txt

# Format-diff check on files changed by the latest commit: warning-only for
# pre-existing code (the tree predates .clang-format), gating for anything
# under tools/lint/. Skipped with a notice when clang-format is absent.
echo "=== format check ==="
if command -v clang-format >/dev/null 2>&1; then
  mapfile -t changed < <(git diff --name-only HEAD~1 -- '*.cc' '*.h' \
    2>/dev/null || true)
  format_bad=0
  for f in "${changed[@]}"; do
    [[ -f "$f" ]] || continue
    if ! clang-format --dry-run --Werror "$f" >/dev/null 2>&1; then
      case "$f" in
        tools/lint/*)
          echo "format ERROR (gating): $f"
          format_bad=1
          ;;
        *)
          echo "format warning (non-gating): $f"
          ;;
      esac
    fi
  done
  [[ "${format_bad}" -eq 0 ]] || exit 1
else
  echo "clang-format not installed; skipping format check"
fi

# run_config <dir> <ctest-regex|-> [cmake args...]
# "-" runs the whole suite; anything else is passed to ctest -R.
run_config() {
  local dir="$1"
  local filter="$2"
  shift 2
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== test ${dir} ==="
  local ctest_args=(--test-dir "${dir}" --output-on-failure -j "${JOBS}")
  if [[ "${filter}" != "-" ]]; then
    ctest_args+=(-R "${filter}")
  fi
  ctest "${ctest_args[@]}"
}

run_config build-release - -DCMAKE_BUILD_TYPE=Release -DCACKLE_WERROR=ON
run_config build-asan - -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCACKLE_SANITIZE=address;undefined"
# TSan covers the genuinely multithreaded code: the work-stealing
# ThreadPool, the DAG-pipelined PlanExecutor running on it (including the
# vectorized kernels pooled tasks call into — the golden suite runs every
# TPC-H plan at 4 and 8 threads against the serial executor), and the
# SweepRunner fan-out. Each Simulation instance is single-threaded by construction, but
# the sweep harness runs many of them on pool threads, so the simulation and
# scheduler suites run here too. The dynamic strategy prices its
# lookback-window shards on two pricing workers while the calling thread
# decides, in TargetSeries and in every Target() an engine makes, so the
# strategy suite and every suite that runs an engine (engine, chaos,
# observability, integration) run here as well.
run_config build-tsan \
  "thread_pool|exec|golden|operators|vectorized|simulation|sim_scheduler|sim_differential|sweep_runner|multitenant|strategy|engine|chaos|observability|integration" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCACKLE_SANITIZE=thread

# ------------------------------------------------------------- chaos smoke
# One correlated-failure storm scenario end to end in the TSan build: the
# driver exits non-zero unless every arrival is accounted for (completed +
# shed). Bit-identity of the chaos engine's zero-fault configuration
# against the 25 seed golden checksums is gated by golden_results_test,
# which runs in the Release suite and again in the TSan filter above.
echo "=== chaos smoke (reclamation_storm, TSan build) ==="
CACKLE_FAST_BENCH=1 ./build-tsan/bench/chaos_matrix \
  --scenario=reclamation_storm

# Multi-tenant smoke: the tenant-count sweep (fast grid) in the TSan build.
# Exercises weighted-fair admission, per-tenant invoicing, and the sweep
# fan-out under the race detector; multitenant_test above gates the exact
# invoice-closure and thread-count bit-identity properties.
echo "=== multitenant smoke (fast sweep, TSan build) ==="
CACKLE_FAST_BENCH=1 CACKLE_BENCH_OUT_DIR=build-tsan \
  ./build-tsan/bench/multitenant

# Chaos-path determinism end to end: perfbench builds its own Release
# binary (into .bench_build/) and runs engine_chaos_tenants, whose
# reclamation storms walk VmFleet's ready index and whose ~100 MB snapshot
# goes through the buffered JsonWriter. The same seed must give
# bit-identical simulated metrics, another seed different ones, and a
# traced run the same ones as an untraced run.
echo "=== perfbench selftest (engine_chaos_tenants) ==="
python3 perfbench/selftest.py engine_chaos_tenants

# Lockstep expert evaluation end to end: trace_replay and engine_paper both
# run the 666-expert dynamic strategy, whose AllocationModel batch bills
# steady experts without touching their VM batches, over lazily built
# sorted windows; trace_replay also runs the in-place predictive fit. Same
# seed, same simulated metrics; traced equals untraced.
echo "=== perfbench selftest (trace_replay, engine_paper) ==="
python3 perfbench/selftest.py trace_replay engine_paper

# The executor end to end: exec_tpch runs all 25 TPC-H plans at SF 0.1 on a
# min(4, nproc)-thread executor, every scan task projecting its row range of
# the catalog table, and checks each result against the single-threaded
# executor's checksums; a traced run must pass the same checks.
echo "=== perfbench selftest (exec_tpch) ==="
python3 perfbench/selftest.py exec_tpch

# Bench smoke: a short microbenchmark pass that both exercises the bench
# binaries and leaves a machine-readable artifact for trend tracking.
echo "=== bench smoke (micro_exec) ==="
./build-release/bench/micro_exec \
  --benchmark_min_time=0.01 \
  --benchmark_out=build-release/BENCH_micro_exec_smoke.json \
  --benchmark_out_format=json
echo "bench artifact: build-release/BENCH_micro_exec_smoke.json"

# Strategy-stack smoke: the dynamic meta-strategy's per-second step,
# sorted-window appends, allocation-model steps, MW updates and the oracle.
# The committed before/after numbers live in bench/results/BENCH_strategy.json.
echo "=== bench smoke (micro_strategy) ==="
./build-release/bench/micro_strategy \
  --benchmark_min_time=0.01 \
  --benchmark_out=build-release/BENCH_micro_strategy_smoke.json \
  --benchmark_out_format=json
echo "bench artifact: build-release/BENCH_micro_strategy_smoke.json"

# Kernel benchmarks with repetitions, compared against the committed
# baseline (bench/results/BENCH_micro_exec_baseline.json, captured before
# the vectorized executor landed). Prints old-vs-new throughput and writes the
# combined artifact to build-release/; the committed
# bench/results/BENCH_micro_exec.json is regenerated by hand on a
# multi-core machine (see EXPERIMENTS.md), never by a CI run.
echo "=== bench kernels (micro_exec, 3 repetitions) ==="
./build-release/bench/micro_exec \
  --benchmark_filter='BM_Filter|BM_HashJoin|BM_HashAggregate|BM_PartitionByHash|BM_FlatMap|BM_GatherRows|BM_DictEncode|BM_MultiStagePlan|BM_TpchQuery' \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  > build-release/BENCH_micro_exec_raw.json
python3 scripts/bench_compare.py \
  bench/results/BENCH_micro_exec_baseline.json \
  build-release/BENCH_micro_exec_raw.json \
  --out build-release/BENCH_micro_exec.json

# Simulation-kernel smoke: the event-core microbench in fast mode, compared
# against the committed full-scale artifact. The committed numbers come
# from paper-scale populations, so the fast-mode run is a smoke test (does
# it run, does it emit well-formed JSON, does the ArrivalSkew Stream/
# ScheduleAt pair still resolve, do both runs execute the same events), not
# a regression gate.
echo "=== bench smoke (sim_core, fast) ==="
CACKLE_FAST_BENCH=1 CACKLE_BENCH_OUT_DIR=build-release \
  ./build-release/bench/sim_core
python3 scripts/bench_compare.py \
  bench/results/BENCH_sim_core.json \
  build-release/BENCH_sim_core.json

# Bounded-memory trace smoke: fig14's observability snapshot (fast mode)
# must be schema 2, with task spans folded into a span_aggregates entry
# whose every span closed by the end of the run.
echo "=== observability snapshot smoke (fig14_stability, fast) ==="
CACKLE_FAST_BENCH=1 CACKLE_BENCH_OUT_DIR=build-release \
  ./build-release/bench/fig14_stability
python3 - build-release/BENCH_fig14_stability.json <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    snap = json.load(f)
tasks = [a for a in snap.get("span_aggregates", []) if a["name"] == "task"]
if snap.get("schema_version") != 2 or len(tasks) != 1 or tasks[0]["open"] != 0:
    sys.exit(f"{path}: want schema_version 2 and one task aggregate with open == 0")
print(f"{path}: {tasks[0]['count']} folded task spans, "
      f"{snap['num_spans']} raw spans")
PY

echo "CI passed: lint, Release (-Werror), address;undefined, and thread" \
  "configurations are green."
