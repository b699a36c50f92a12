"""The telemetry hard invariant: observation never perturbs canonical bytes.

Runs a small real sweep twice per engine x model mode combination —
once cold, once with metrics collection AND span tracing fully enabled
— and requires identical ``canonical_json()``/``sha256()``. This is
what makes it safe to leave the instrumentation wired into the engine,
the Hadoop model, HDFS, and the sweep driver permanently.
"""

import itertools
from dataclasses import replace

import pytest

from repro import runctx
from repro.experiments import run_sweep
from repro.obs.metrics import MetricsRegistry
from repro.obs.traceexport import TraceCollector

GRID = {"nodes": [2, 4], "samples": 1e9}

MODES = list(itertools.product([False, True], repeat=2))


@pytest.mark.parametrize(
    "reference_engine,reference_model", MODES,
    ids=[f"eng{'RF'[e]}-mod{'RF'[m]}" for e, m in MODES],
)
def test_sweep_bytes_identical_with_telemetry_enabled(
    reference_engine, reference_model
):
    ctx = replace(runctx.current(), engine_reference=reference_engine,
                  model_reference=reference_model)
    with runctx.using(ctx):
        baseline = run_sweep("fig8", GRID, seed=7)

        collector = TraceCollector()
        with runctx.using(replace(ctx, metrics=MetricsRegistry(),
                                  traces=collector)):
            instrumented = run_sweep("fig8", GRID, seed=7,
                                     collect_metrics=True)

    assert instrumented.sha256() == baseline.sha256()
    assert instrumented.canonical_json() == baseline.canonical_json()
    # The instrumentation actually ran: spans were recorded and every
    # point carried a metrics snapshot back...
    assert collector.span_count() > 0
    assert all(p.get("metrics") for p in instrumented.points)
    # ...and none of it leaked into the canonical payload.
    canonical = instrumented.canonical_dict()
    assert all(set(row) == {"params", "values"}
               for row in canonical["points"])


def test_collect_metrics_snapshots_have_sim_counters():
    # The driver gives every point a registry of its own.
    with runctx.using(replace(runctx.current(), metrics=None)):
        result = run_sweep("fig8", {"nodes": [2], "samples": 1e9},
                           seed=7, collect_metrics=True)
    (row,) = result.points
    snap = row["metrics"]
    assert snap["sim_heartbeats_total"]["values"][""] > 0
    assert snap["sim_assignments_total"]["values"][""] > 0
    assert "sim_vt_map_slot_utilization" in snap


def test_worker_pool_path_matches_serial_with_metrics():
    """collect_metrics survives the multiprocess dispatch path and the
    bytes still match a plain serial run."""
    plain = run_sweep("fig8", GRID, seed=3)
    collected = run_sweep("fig8", GRID, seed=3, workers=2,
                          collect_metrics=True)
    assert collected.sha256() == plain.sha256()
    assert all(p.get("metrics") for p in collected.points)
