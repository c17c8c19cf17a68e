#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs and print old-vs-new throughput.

Usage:
  bench_compare.py BASELINE.json NEW.json [--out COMBINED.json]

Both inputs are google-benchmark's JSON format (--benchmark_format=json or
--benchmark_out_format=json), with or without repetitions. When a file
contains repetition aggregates, the `mean` aggregate is used; otherwise the
raw per-benchmark entry is. Throughput is items_per_second when the
benchmark reports it, else bytes_per_second, else runs/second derived from
real_time.

With --out, also writes a combined JSON artifact holding the baseline and
new numbers plus the speedup per benchmark (the committed
bench/results/BENCH_micro_exec.json is produced this way).
"""

import argparse
import json
import sys

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def _throughput(entry):
    """(value, metric-name) for one benchmark entry."""
    if "events_per_second" in entry:
        return entry["events_per_second"], "events/s"
    if "items_per_second" in entry:
        return entry["items_per_second"], "items/s"
    if "bytes_per_second" in entry:
        return entry["bytes_per_second"], "bytes/s"
    ns = entry["real_time"] * _TIME_UNIT_NS.get(entry.get("time_unit", "ns"))
    return (1e9 / ns if ns else 0.0), "runs/s"


def load(path):
    """{benchmark-name: entry}, preferring the `mean` aggregate.

    google-benchmark appends "/real_time" to the name of a benchmark that
    reports wall-clock time; it is dropped so a variant still pairs with
    its CPU-time scalar sibling and names stay stable across runs.
    """
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("run_name", entry.get("name", ""))
        name = name.removesuffix("/real_time")
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "mean":
                out[name] = entry
        else:
            out.setdefault(name, entry)
    return out


def environment_header(path):
    """Execution-environment header for the combined artifact.

    Pulls available_cores / cxx_flags out of google-benchmark's context
    block (micro_exec registers them via AddCustomContext) so the committed
    artifact states on its face how many cores the numbers were measured
    on.
    """
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    cores = ctx.get("available_cores") or ctx.get("num_cpus")
    try:
        cores = int(cores)
    except (TypeError, ValueError):
        cores = None
    return {
        "available_cores": cores,
        "cxx_flags": ctx.get("cxx_flags"),
        "library_build_type": ctx.get("library_build_type"),
    }


def spawn_speedups(run):
    """{name: speedup} vs the baseline-variant sibling within one run.

    Benchmarks come in variant families measured in the same invocation:
    the multi-stage plan benchmarks as Spawn/Pipelined (per-stage
    thread-spawn baseline vs DAG-pipelined pool scheduling), the
    simulation-kernel arrival-skew mix as ScheduleAt/Stream (one ScheduleAt
    per arrival vs the sorted arrival stream). The pooled and
    thread-spawning variants report wall-clock time, so their speedups are
    wall-clock speedups.
    For each non-baseline variant this reports how much faster it runs than
    its baseline sibling of the same invocation, so the artifact records
    the win even when the committed cross-run baseline predates these
    benchmarks.
    """
    pairs = (("Pipelined", "Spawn"), ("Stream", "ScheduleAt"))
    out = {}
    for name, entry in run.items():
        for variant, baseline in pairs:
            if variant in name:
                sibling = name.replace(variant, baseline)
                if sibling in run and sibling != name:
                    value, _ = _throughput(entry)
                    base, _ = _throughput(run[sibling])
                    if base:
                        out[name] = value / base
                break
    return out


def fmt(value):
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= scale:
            return f"{value / scale:.2f}{suffix}"
    return f"{value:.1f}"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--out", help="write combined JSON artifact here")
    args = parser.parse_args(argv)

    old = load(args.baseline)
    new = load(args.new)
    shared = [name for name in new if name in old]
    if not shared:
        print("no overlapping benchmarks between the two files",
              file=sys.stderr)
        return 1

    vs_spawn = spawn_speedups(new)

    def annotate(name):
        if name in vs_spawn:
            return f"  [{vs_spawn[name]:.2f}x vs baseline]"
        return ""

    width = max(len(n) for n in new)
    print(f"{'benchmark':<{width}}  {'old':>10}  {'new':>10}  speedup")
    combined = []
    for name in shared:
        old_v, metric = _throughput(old[name])
        new_v, _ = _throughput(new[name])
        speedup = new_v / old_v if old_v else float("inf")
        print(f"{name:<{width}}  {fmt(old_v):>10}  {fmt(new_v):>10}  "
              f"{speedup:6.2f}x  ({metric}){annotate(name)}")
        combined.append({
            "name": name,
            "metric": metric,
            "baseline": old_v,
            "after": new_v,
            "speedup": round(speedup, 4),
            "speedup_vs_spawn": round(vs_spawn[name], 4)
            if name in vs_spawn else None,
        })
    only_new = sorted(set(new) - set(old))
    for name in only_new:
        new_v, metric = _throughput(new[name])
        print(f"{name:<{width}}  {'-':>10}  {fmt(new_v):>10}      new  "
              f"({metric}){annotate(name)}")
        combined.append({
            "name": name,
            "metric": metric,
            "baseline": None,
            "after": new_v,
            "speedup": None,
            "speedup_vs_spawn": round(vs_spawn[name], 4)
            if name in vs_spawn else None,
        })

    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "baseline_file": args.baseline,
                "new_file": args.new,
                "environment": environment_header(args.new),
                "benchmarks": combined,
            }, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
