"""The fresh interpreter that runs one in-process pass.

Run as ``python perfbench/child.py <mode> --spawned <t> [...]`` with the
package on ``PYTHONPATH``; :mod:`run` starts it once per pass, so memo
caches start empty as they do for a CLI user. It prints one JSON object
as its last stdout line.

Modes:

- ``setup``    import the package and exit (a set-up sample);
- ``figs``     sweep the paper's figures, in order, at their default grids;
- ``scale``    sweep the ``scale`` scenario's 1024-node point;
- ``offline``  sweep a list of requests and report each result's sha256
  (the reference the served and fleet payloads are checked against);
- ``serve``    run ``repro serve`` with the arguments after ``--``, its
  simulation layers traced (see :func:`run_daemon`).

``--spawned`` is the parent's ``time.monotonic()`` at spawn; the system
wide monotonic clock makes ``setup_s`` cover interpreter start plus
import. ``--trace SPANS`` traces the pass (see :mod:`layers`) and writes
its spans to the file SPANS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from expected import FIGURE_SHA256


def _series(result) -> dict:
    return {s.label: [list(s.xs), list(s.ys)] for s in result.series}


def _sweep_rows(result) -> tuple[float, int, int]:
    point_s = sum(p.get("elapsed_s", 0.0) for p in result.points)
    return point_s, result.executed_points, result.cached_points


def run_figs(run_sweep) -> dict:
    shas, fig2 = {}, None
    point_s = executed = cached = 0
    t0 = time.perf_counter()
    for name in FIGURE_SHA256:
        result = run_sweep(name)
        shas[name] = result.sha256()
        if name == "fig2":
            fig2 = _series(result)
        p, e, c = _sweep_rows(result)
        point_s, executed, cached = point_s + p, executed + e, cached + c
    return {"wall_s": time.perf_counter() - t0, "shas": shas, "fig2": fig2, "point_s": point_s,
            "points_executed": executed, "points_cached": cached}


def run_scale(run_sweep) -> dict:
    t0 = time.perf_counter()
    result = run_sweep("scale", {"nodes": [1024]})
    values = result.points[0]["values"]
    wall = time.perf_counter() - t0
    point_s, executed, cached = _sweep_rows(result)
    return {"wall_s": wall, "values": values,
            "point_s": point_s, "points_executed": executed,
            "points_cached": cached}


def run_offline(run_sweep, requests: list[dict]) -> dict:
    shas, fig2 = [], None
    for r in requests:
        result = run_sweep(r["scenario"], r.get("overrides") or None, seed=r.get("seed"))
        shas.append(result.sha256())
        if fig2 is None and r["scenario"] == "fig2":
            fig2 = _series(result)
    return {"shas": shas, "fig2": fig2}


def run_daemon(layers_dir: Path, argv: list[str]) -> int:
    """``repro serve`` with the simulation layers traced in the daemon
    and in every pool worker it forks. Each process writes its totals to
    ``layers_dir/<pid>.json``: a pool worker after every point it runs
    (it is never shut down cleanly), the daemon once more when it exits."""
    import os

    from layers import SimulationLayers
    from repro.cli import main as repro_main
    from repro.experiments import driver

    layers = SimulationLayers(spans=True)
    os.register_at_fork(after_in_child=layers.reset)
    layers.tracer.timed(driver, "_execute_point", "experiments.point")
    execute_point = driver._execute_point

    def traced_point(*args, **kwargs):
        try:
            return execute_point(*args, **kwargs)
        finally:
            layers.dump(layers_dir / f"{os.getpid()}.json")

    driver._execute_point = traced_point
    try:
        return repro_main(argv)
    finally:
        layers.dump(layers_dir / f"{os.getpid()}.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "figs", "scale", "offline", "serve"])
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--requests", type=Path)
    ap.add_argument("--trace", type=Path)
    ap.add_argument("--layers", type=Path)
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    if args.mode == "serve":
        return run_daemon(args.layers, argv[cut + 1:])

    from repro.experiments import run_sweep

    out: dict = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    from layers import SimulationLayers

    layers = SimulationLayers(spans=args.trace is not None)
    if args.mode == "figs":
        out.update(run_figs(run_sweep))
    elif args.mode == "scale":
        out.update(run_scale(run_sweep))
    elif args.mode == "offline":
        out.update(run_offline(run_sweep, json.loads(args.requests.read_text())))
    out["counts"] = layers.counts()
    if args.trace is not None:
        out["layers"] = layers.metrics()
        layers.tracer.write_spans(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
