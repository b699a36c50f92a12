"""Opt-in (`-m sweep`) end-to-end exercises of the parallel sweep
driver on full paper grids — the heavy counterpart of the reduced-grid
golden tests. A CI job runs `pytest -m sweep` next to the default gate.
"""

import io
from dataclasses import replace

import pytest

from repro import runctx
from repro.cli import main as cli_main
from repro.experiments import run_sweep, save_sweep

pytestmark = pytest.mark.sweep


def test_full_fig8_grid_worker_invariant():
    """The acceptance sweep: the paper's full Fig-8 grid, byte-identical
    at 1 and 4 workers, in both engine modes."""
    overrides = {"samples": 1e10}  # full node grid, one decade lighter
    serial = run_sweep("fig8", overrides, workers=1)
    parallel = run_sweep("fig8", overrides, workers=4)
    assert serial.canonical_json() == parallel.canonical_json()
    with runctx.using(replace(runctx.current(), engine_reference=True)):
        reference = run_sweep("fig8", overrides, workers=4)
    assert reference.canonical_json() == serial.canonical_json()


def test_extension_scenarios_full_grids_parallel(tmp_path):
    """Every extension study — including the scheduler-comparison
    scenarios — runs its declared grid under the parallel driver and
    persists valid artifacts."""
    for name in ("hetero", "faults", "gpu", "skew", "sched_compare", "multijob"):
        result = run_sweep(name, workers=4)
        assert all(len(s) == len(result.points) for s in result.series)
        paths = save_sweep(result, tmp_path)
        assert paths["json"].exists() and paths["csv"].exists()
        again = run_sweep(name, workers=2)
        assert again.canonical_json() == result.canonical_json(), name


def test_cli_sweep_full_fig7_matches_serial(tmp_path):
    """`repro sweep fig7` end to end through the CLI, workers 4 vs 1."""
    outputs = []
    for workers in ("1", "4"):
        buf = io.StringIO()
        code = cli_main(
            ["sweep", "fig7", "--grid", "samples=3e3,3e7,3e11",
             "--workers", workers, "--out", str(tmp_path / f"w{workers}")],
            out=buf,
        )
        assert code == 0
        outputs.append(buf.getvalue())
    # The sweep-footer line differs (worker count / wall time); the
    # table, chart, summary, and sha must not.
    def strip_footer(text):
        return [ln for ln in text.splitlines()
                if not ln.startswith(("sweep fig7:", "wrote "))]
    assert strip_footer(outputs[0]) == strip_footer(outputs[1])
    j1 = (tmp_path / "w1" / "fig7.json").read_bytes()
    j4 = (tmp_path / "w4" / "fig7.json").read_bytes()
    assert j1 == j4


def test_full_fig8_grid_sharded_across_pools(tmp_path):
    """Cross-host workflow on the paper's full Fig-8 grid: 3 shards run
    independently (as three hosts would), each on its own worker pool,
    then merge byte-identically to the serial acceptance sweep."""
    from repro.experiments.driver import merge_shards, run_shard

    overrides = {"samples": 1e10}
    serial = run_sweep("fig8", overrides, workers=1)
    dirs = [tmp_path / f"host{i}" for i in range(3)]
    for i, host in enumerate(dirs):
        run_shard("fig8", i, 3, host, overrides, workers=2)
    merged = merge_shards(dirs)
    assert merged.canonical_json() == serial.canonical_json()
    paths = save_sweep(merged, tmp_path / "merged")
    assert paths["json"].read_text() == serial.pretty_json()


def test_scale_scenario_cluster_sized_point(tmp_path):
    """`repro sweep scale` at a genuinely cluster-scale point (256
    worker blades, every policy), byte-identical across worker counts.
    The full 256/512/1024 grid is CLI territory; one 256-node point
    keeps this job inside the sweep budget while still exercising the
    event-thin protocol at 4x the paper's largest cluster."""
    serial = run_sweep("scale", {"nodes": [256]}, workers=1)
    parallel = run_sweep("scale", {"nodes": [256]}, workers=2)
    assert serial.canonical_json() == parallel.canonical_json()
    assert len(serial.series) == 4  # every placement policy
    assert all(all(y > 0 for y in s.ys) for s in serial.series)
    paths = save_sweep(serial, tmp_path)
    assert paths["json"].exists() and paths["csv"].exists()
