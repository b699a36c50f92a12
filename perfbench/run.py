#!/usr/bin/env python3
"""The repository's benchmark: four workloads through the program's
public entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload served_mix --seed 1 --seconds 55 --trace 0

Workloads: ``paper_figs``, ``scale_1024``, ``served_mix``, ``fleet_sweep``
(see ``perfbench/README.md`` for what each runs and why, and why
``BENCHMARK.json`` lists only ``served_mix`` and ``fleet_sweep``). With
``--trace 0`` a run repeats its workload's pass for about ``--seconds``
seconds, at least twice, and reports the end-to-end metrics; with ``--trace 1`` it makes
one untraced and one traced pass and reports the per-layer metrics and
the tracing overhead. Every run checks the program's outputs. The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every check passed, 1 when one failed or the run
broke, 2 when the run is refused (not a checkout root, or an engine,
model or telemetry mode switch is set in the environment).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import expected  # noqa: E402
import fleet  # noqa: E402
import served  # noqa: E402
from proc import MODE_ENV, SRC, ProcSet  # noqa: E402

FIG2_DEFAULT = {"scenario": "fig2", "overrides": {}, "seed": None}
#: Set-up samples per untraced run; passes that do not give as many
#: are topped up with set-up-only probes.
SETUP_SAMPLES = 7
#: Passes per untraced run even when one pass outlasts ``--seconds``
#: (a scale-point pass takes about 25 s on a 2-vCPU host), so ``wall_s``
#: is never one sample.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0
RUNS_DIR = Path(".perfbench-runs")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "request_p50_s": "s",
    "request_p95_s": "s",
    "fidelity_max_rel_err": "ratio",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.host_us_per_event": "us",
    "hadoop.heartbeats": "count",
    "hadoop.heartbeat_batches": "count",
    "hadoop.has_demand_calls": "count",
    "hadoop.has_demand_s": "s",
    "hadoop.poke_calls": "count",
    "hadoop.records": "count",
    "hadoop.kernel_records": "count",
    "sched.assign_calls": "count",
    "sched.assign_s": "s",
    "sched.assign_us_per_call": "us",
    "sched.assign_empty_ratio": "ratio",
    "cell.analytic_calls": "count",
    "cell.analytic_s": "s",
    "perf.kernel_calls": "count",
    "perf.kernel_s": "s",
    "hdfs.locate_calls": "count",
    "hdfs.choose_replica_calls": "count",
    "hdfs.choose_replica_s": "s",
    "hdfs.ingest_s": "s",
    "hdfs.write_calls": "count",
    "experiments.points_executed": "count",
    "experiments.points_cached": "count",
    "experiments.point_s": "s",
    "experiments.build_result_s": "s",
    "experiments.canonical_json_s": "s",
    "serve.admit_s": "s",
    "serve.first_point_s": "s",
    "serve.assemble_s": "s",
    "serve.handle_s": "s",
    "serve.coalesced_submits": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.hit_share": "ratio",
    "serve.miss_share": "ratio",
    "serve.coalesced_share": "ratio",
    "fabric.first_result_s": "s",
    "fabric.tail_s": "s",
    "fabric.redispatched": "count",
    "fabric.duplicates": "count",
    "fabric.speculative": "count",
    "fabric.busy_ratio": "ratio",
    "wire.frames_in": "count",
    "wire.bytes_in": "bytes",
    "wire.decode_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """Everything one workload run collects."""

    def __init__(self, args, workdir: Path, procs: ProcSet):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, bool(args.trace)
        self.workdir, self.procs = workdir, procs
        self.passes: list[dict] = []     # wall_s, requests_s, counts
        self.setup: list[float] = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.fidelity: float = math.nan
        self.layers: dict[str, float] = {}
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        return self.workdir / f"{self._dirs:03d}-{name}"

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(message)

    def add_pass(self, wall_s: float, counts: dict, setup_s: float, rss_mb: float,
                 requests_s: Optional[list[float]] = None) -> None:
        """Record one pass; without ``requests_s`` the pass is one request."""
        self.passes.append({"wall_s": wall_s, "counts": counts,
                            "requests_s": [wall_s] if requests_s is None else requests_s})
        self.setup.append(setup_s)
        self.rss_mb = max(self.rss_mb, rss_mb)

    def repeat(self, one_pass) -> None:
        """At least ``MIN_PASSES`` passes, then more until about
        ``seconds`` are spent: another pass starts while at least half
        the mean pass time is left."""
        t0 = time.monotonic()
        while True:
            one_pass()
            spent = time.monotonic() - t0
            if (len(self.passes) >= MIN_PASSES
                    and spent + spent / len(self.passes) / 2 > self.seconds):
                return

    def measure(self, one_pass, setup_probe) -> None:
        """Untraced: passes for about ``seconds``, then set-up probes
        until there are ``SETUP_SAMPLES`` set-up samples. Traced: one
        untraced pass, then one traced pass that the per-layer metrics
        come from. ``one_pass(trace)`` calls :meth:`add_pass`."""
        if not self.trace:
            self.repeat(lambda: one_pass(False))
            while len(self.setup) < SETUP_SAMPLES:
                self.setup.append(setup_probe())
            return
        one_pass(False)
        one_pass(True)
        untraced, traced = self.passes[-2]["wall_s"], self.passes[-1]["wall_s"]
        self.layers["trace.wall_s"] = traced
        self.layers["trace.overhead_s"] = traced - untraced
        self.layers.update({k: v for k, v in self.passes[-1]["counts"].items()
                            if k in PER_LAYER})

    def child(self, mode: str, *extra: str) -> dict:
        """Run ``child.py`` in a fresh interpreter; its JSON result."""
        proc = self.procs.python(
            [str(HERE / "child.py"), mode, "--spawned", repr(time.monotonic()), *extra], mode)
        proc.wait(CHILD_TIMEOUT_S)
        proc.check()
        out = json.loads(proc.stdout().splitlines()[-1])
        out["rss_mb"] = proc.maxrss_mb
        return out

    def offline(self, requests: list[dict]) -> dict:
        """The offline ``run_sweep`` of each request, in a fresh
        interpreter: the reference for served and fleet payloads."""
        path = self.workdir / "offline-requests.json"
        path.write_text(json.dumps(requests))
        return self.child("offline", "--requests", str(path))

    def import_probe(self) -> float:
        return self.child("setup")["setup_s"]


# -- workloads ---------------------------------------------------------------

def _inprocess_pass(run: Run, mode: str, trace: bool) -> dict:
    """One pass in a fresh interpreter (``child.py``)."""
    extra = ["--trace", str(run.workdir / f"spans-{mode}.jsonl")] if trace else []
    out = run.child(mode, *extra)
    counts = {**out["counts"], "experiments.points_executed": out["points_executed"],
              "experiments.points_cached": out["points_cached"]}
    run.add_pass(out["wall_s"], counts, out["setup_s"], out["rss_mb"])
    if trace:
        run.layers.update(out["layers"])
        run.layers["experiments.point_s"] = out["point_s"]
    return out


def paper_figs(run: Run) -> None:
    """Figs. 2-8 at the paper's grids in one fresh process per pass.
    The inputs are the paper's; the seed chooses nothing."""

    def one_pass(trace: bool) -> None:
        out = _inprocess_pass(run, "figs", trace)
        for fig in expected.FIGURE_SHA256:
            got = out["shas"][fig]
            run.check(got == expected.FIGURE_SHA256[fig],
                      f"{fig}: sha256 {got[:16]} differs from the frozen value")
        run.fidelity = expected.fidelity_max_rel_err(out["fig2"])

    run.measure(one_pass, run.import_probe)


def scale_1024(run: Run) -> None:
    """The ``scale`` scenario's 1024-node point, all four policies.
    The seed chooses nothing."""

    def one_pass(trace: bool) -> None:
        out = _inprocess_pass(run, "scale", trace)
        for policy, want in expected.SCALE_1024_MEAN_COMPLETION_S.items():
            got = out["values"].get(policy)
            run.check(got == want, f"scale 1024 {policy}: mean completion {got!r} != {want!r}")

    run.measure(one_pass, run.import_probe)
    fig2 = run.offline([FIG2_DEFAULT])
    run.check(fig2["shas"][0] == expected.FIGURE_SHA256["fig2"], "fig2 sha256 differs")
    run.fidelity = expected.fidelity_max_rel_err(fig2["fig2"])


def served_mix(run: Run) -> None:
    """A seeded request stream against a fresh ``repro serve`` daemon."""
    from layers import WireLayer

    plan = served.make_plan(run.seed)
    results: list[dict] = []

    def one_pass(trace: bool) -> None:
        wire = WireLayer() if trace else None
        res = served.run_pass(run.procs, run.fresh_dir("serve"), plan, trace)
        summary = served.summarize(res)
        counts = {f"serve.{k}": summary[k] for k in ("hit_share", "miss_share",
                                                   "coalesced_share")}
        counts["experiments.points_executed"] = summary["points_executed"]
        counts["experiments.points_cached"] = summary["points_cached"]
        run.add_pass(res["wall_s"], counts, res["setup_s"], res["rss_mb"],
                     requests_s=summary["latencies"])
        results.append(res)
        if summary["fig2"] is not None:
            run.fidelity = expected.fidelity_max_rel_err(expected.series_of(summary["fig2"]))
        if trace:
            stats = res["stats"]
            run.layers.update(res["layers"])
            run.layers.update(wire.metrics())
            run.layers.update({
                "serve.admit_s": summary["admit_s"],
                "serve.first_point_s": summary["first_point_s"],
                "serve.assemble_s": summary["assemble_s"],
                "serve.handle_s": res["handle_s"],
                "serve.coalesced_submits": stats["coalesced_submits"],
                "serve.cache_hit_ratio": stats["cache_hits"] / max(stats["jobs"], 1),
            })

    run.measure(one_pass, lambda: served.setup_probe(run.procs, run.fresh_dir("probe")))
    distinct = served.distinct_requests(plan)
    offline = run.offline(distinct)
    want = {served.request_id(r): sha for r, sha in zip(distinct, offline["shas"])}
    for res in results:
        attempted, failed, notes = served.check_pass(res, want)
        run.attempted += attempted
        run.failed += failed
        run.notes.extend(notes)


def fleet_sweep(run: Run) -> None:
    """A 71-point fig8 sweep across a coordinator and two workers."""
    seed = random.Random(run.seed).randrange(1, 1_000_000)
    results: list[dict] = []

    def one_pass(trace: bool) -> None:
        res = fleet.run_pass(run.procs, run.fresh_dir("fleet"), seed)
        counts = {"experiments.points_executed": res["accepted"],
                  "experiments.points_cached": res["prefilled"]}
        run.add_pass(res["wall_s"], counts, res["setup_s"], res["rss_mb"])
        results.append(res)
        if trace:
            run.layers.update({
                "experiments.point_s": res["point_s"],
                "fabric.first_result_s": res["first_result_s"],
                "fabric.tail_s": res["tail_s"],
                "fabric.redispatched": res["redispatched"],
                "fabric.duplicates": res["duplicates"],
                "fabric.speculative": res["speculative"],
                "fabric.busy_ratio": res["point_s"] / (fleet.WORKERS * res["wall_s"]),
            })

    run.measure(one_pass, lambda: fleet.setup_probe(run.procs, run.fresh_dir("probe"), seed))
    offline = run.offline([fleet.request(seed), FIG2_DEFAULT])
    want = offline["shas"][0]
    run.fidelity = expected.fidelity_max_rel_err(offline["fig2"])
    for res in results:
        sha = expected.canonical_sha256(res["merged"])
        ok = sha == want and want.startswith(res["summary_sha"])
        run.attempted += res["points"] + res["redispatched"]
        run.failed += res["redispatched"] + (0 if ok else res["points"])
        if not ok:
            run.notes.append(f"fleet result sha256 {sha[:16]} != offline {want[:16]}")
        if res["redispatched"]:
            run.notes.append(f"fleet re-dispatched {res['redispatched']} point(s)")


WORKLOADS = {
    "paper_figs": paper_figs,
    "scale_1024": scale_1024,
    "served_mix": served_mix,
    "fleet_sweep": fleet_sweep,
}


# -- reporting ---------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run) -> dict[str, float]:
    walls = [p["wall_s"] for p in run.passes]
    latencies = [x for p in run.passes for x in p["requests_s"]]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": run.rss_mb,
        "requests_per_s": len(latencies) / sum(walls),
        "request_p50_s": statistics.median(latencies),
        "request_p95_s": percentile(latencies, 0.95),
        "fidelity_max_rel_err": run.fidelity,
    }


def count_drift(run: Run) -> list[str]:
    """Stable counts must read the same on every pass of a run."""
    first = run.passes[0]["counts"]
    return [f"count {k} drifted across passes: {[p['counts'].get(k) for p in run.passes]}"
            for k in first if any(p["counts"].get(k) != first[k] for p in run.passes)]


def print_report(workload: str, run: Run, metrics: dict, units: dict) -> None:
    mode = "traced" if run.trace else "untraced"
    print(f"perfbench {workload} seed={run.seed} ({mode}, {len(run.passes)} pass(es))")
    n_req = sum(len(p["requests_s"]) for p in run.passes)
    samples = {"wall_s": f"median of {len(run.passes)} passes",
               "setup_s": f"median of {len(run.setup)} set-ups",
               "requests_per_s": f"{n_req} requests",
               "request_p50_s": f"{n_req} samples",
               "request_p95_s": f"{n_req} samples"}
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]:<6} {samples.get(name, '')}")
    print("  stable counts per pass:")
    for name, value in run.passes[0]["counts"].items():
        print(f"    {name:<30} {value}")
    print(f"  checks: {run.attempted - run.failed}/{run.attempted} passed, "
          f"failed_ratio {run.failed / max(run.attempted, 1):.4g}")
    for note in run.notes:
        print(f"  ! {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still stops its children (ProcSet.__exit__).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    set_modes = [v for v in MODE_ENV if os.environ.get(v)]
    if set_modes:
        print(f"refusing to run: {', '.join(set_modes)} set; the benchmark measures "
              "the default engine and model modes", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"refusing to run: no {SRC}/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))

    workdir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    with ProcSet(workdir / "logs") as procs:
        run = Run(args, workdir, procs)
        WORKLOADS[args.workload](run)
    run.notes.extend(count_drift(run))
    if run.trace:
        metrics = {name: run.layers.get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = end_to_end(run)
        units = END_TO_END
    print_report(args.workload, run, metrics, units)
    (workdir / "report.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": metrics, "passes": run.passes, "setup_s": run.setup,
        "attempted": run.attempted, "failed": run.failed, "notes": run.notes,
    }, indent=1))
    for sub in workdir.iterdir():
        if sub.is_dir() and sub.name != "logs":
            shutil.rmtree(sub)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
