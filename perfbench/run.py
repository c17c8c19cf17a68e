#!/usr/bin/env python3
"""Wall-clock benchmark of the Cackle reproduction: one workload per call.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds cackle_perfbench (Release) into .bench_build at the repository root,
runs the workload in its own process, prints every metric by name with its
unit plus the environment header and output checks, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list (untraced run); with --trace 1
they are its per_layer list (an untraced and a traced run; metrics of a
layer the workload does not exercise read 0, see perfbench/metrics.json).

Exits non-zero without a result line when the sources are missing, the
build fails or the benchmark binary crashes; exits 1 after the result line when an
output check failed.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cackle_perfbench"
WORKLOADS = ("trace_replay", "engine_paper", "engine_chaos_tenants", "exec_tpch")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    """BENCHMARK.json plus the layer map, cross-checked by name."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "metrics.json").read_text())["metrics"]
    for metric in bench["end_to_end"] + bench["per_layer"]:
        name = metric["name"]
        if name not in layers and f"{name.rsplit('.', 1)[0]}.*" not in layers:
            fail(f"metrics.json has no layer entry for {name}")
    return bench, layers


def layer_entry(layers, name):
    return layers.get(name) or layers[f"{name.rsplit('.', 1)[0]}.*"]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Cackle sources at {ROOT}; run from a repository checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "cackle_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_binary(workload, seed, seconds, trace):
    """Runs the benchmark binary; returns its report (the JSON on its last line)."""
    spans = BUILD / "spans" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark binary exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["spans_path"] = str(spans.relative_to(ROOT)) if trace else None
    return report


def select_metrics(report, workload, wanted, layers):
    """The contract's metric set: present ones as measured, layers the
    workload does not exercise as 0; a missing exercised metric is a bug."""
    measured = report["metrics"]
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: reported unit {measured[name]['unit']} != {unit}")
            out[name] = {"value": measured[name]["value"], "unit": unit}
            continue
        applies = layer_entry(layers, name)["workloads"]
        if applies == "all" or workload in applies:
            fail(f"{workload} did not report {name}")
        out[name] = {"value": 0.0, "unit": unit}
    return out


def print_human(report, args, bench):
    env = report["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}")
    print(f"env: nproc={env['nproc']} threads={env['threads']}"
          f" cpu=\"{cpu_model()}\" llc_mb={env['llc_bytes'] / 2**20:.1f}"
          f" build={env['build_type']} flags=\"{env['cxx_flags'].strip()}\""
          f" compiler=\"{env['compiler']}\" commit={git_commit()}"
          f" seed={args.seed} clock=\"{env['clock']}\"")
    print(f"passes: {len(report['pass_s'])} timed, wall s "
          + " ".join(f"{s:.4f}" for s in report["pass_s"]))
    print(f"checks: {report['checks']} run, {report['failed_checks']} failed")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    gated = {m["name"] for m in bench["end_to_end"]}
    for name, m in sorted(report["metrics"].items(),
                          key=lambda kv: (kv[0] not in gated, kv[0])):
        print(f"  {name:34s} {m['value']:>18.6g} {m['unit']}")
    if report["spans_path"]:
        print(f"spans: {report['spans_path']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench, layers = load_spec()
    build()
    report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    print_human(report, args, bench)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = select_metrics(report, args.workload, wanted, layers)
    ok = report["failed_checks"] == 0
    print(json.dumps({"correct": ok, "attempted": report["checks"],
                      "failed": report["failed_checks"], "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
