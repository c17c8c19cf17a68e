#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all four), at the minimum run length:
  * two runs with the same seed report bit-identical simulated metrics;
  * a run with another seed changes them (the seed reaches the generators);
  * the traced run's simulated metrics equal the untraced run's.
Simulated metrics are exact functions of the seed; host timings are not
compared. Exits 1 on the first mismatch.
"""

import sys

import run

SIMULATED = {
    "trace_replay": ["dynamic_cost_vs_oracle", "dynamic_cost_vs_best",
                     "failed_share"],
    "engine_paper": ["cost_per_query_usd", "latency_p50_s", "latency_p99_s",
                     "failed_share"],
    "engine_chaos_tenants": ["cost_per_query_usd", "latency_p50_s",
                             "latency_p99_s", "tenant_cost_cv",
                             "failed_share"],
    # No simulated outcome: every result is checked against the
    # single-threaded executor's checksums instead.
    "exec_tpch": ["failed_share"],
}
SEED_A, SEED_B = 101, 202


def simulated(workload, seed, trace):
    report = run.run_binary(workload, seed, 0, trace)
    if report["failed_checks"]:
        sys.exit(f"FAIL {workload} seed={seed}: {report['failures']}")
    return {name: report["metrics"][name]["value"]
            for name in SIMULATED[workload]}


def main():
    workloads = sys.argv[1:] or list(SIMULATED)
    run.build()
    for workload in workloads:
        first = simulated(workload, SEED_A, trace=False)
        checks = [
            ("same seed, same metrics",
             simulated(workload, SEED_A, trace=False) == first),
            ("traced run, same metrics",
             simulated(workload, SEED_A, trace=True) == first),
        ]
        if workload != "exec_tpch":
            checks.append(("other seed, other metrics",
                           simulated(workload, SEED_B, trace=False) != first))
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {name}")
            if not ok:
                sys.exit(1)
        print(f"     {workload}: {first}")


if __name__ == "__main__":
    main()
