#!/usr/bin/env python3
"""The benchmark's own test.

For each workload it makes two traced runs with the same seed and
requires every stable count to read exactly the same in both (a count
that drifts means state leaks between runs), then one untraced run with
a held-out seed that must pass every correctness check. Run from the
root of a checkout::

    python3 perfbench/selftest.py

It takes about five minutes for all four workloads. Exit status 0 when
everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("paper_figs", "scale_1024", "served_mix", "fleet_sweep")
STABLE_COUNTS = (
    "sim.events",
    "hadoop.heartbeats",
    "sched.assign_calls",
    "experiments.points_executed",
    "experiments.points_cached",
    "serve.hit_share",
    "serve.miss_share",
    "serve.coalesced_share",
)
SEED, HELD_OUT_SEED = 1234, 987_654


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode} without "
                           f"a result:\n{proc.stderr[-3000:]}") from None


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        first, second = bench(workload, SEED, 1), bench(workload, SEED, 1)
        for name in STABLE_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            status = "ok" if a == b else "DRIFT"
            if a != b:
                failures.append(f"{workload}: {name} {a} != {b}")
            print(f"{workload:<12} {name:<30} {a:>12g} {b:>12g} {status}")
        held_out = bench(workload, HELD_OUT_SEED, 0)
        ok = held_out["correct"] and held_out["failed"] == 0
        if not ok:
            failures.append(f"{workload}: held-out seed {HELD_OUT_SEED} failed a check")
        print(f"{workload:<12} held-out seed {HELD_OUT_SEED}: "
              f"{held_out['attempted'] - held_out['failed']}/{held_out['attempted']} checks")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
