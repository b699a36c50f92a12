"""Golden-series regression tests.

Freezes the canonical sweep output of every figure scenario (reduced
grids, fixed seed) under ``tests/golden/data/`` and asserts the current
tree reproduces the stored bytes exactly:

- in both engine modes (optimized fast loop and the pre-overhaul
  reference loop selected by ``REPRO_SIM_REFERENCE=1``), and
- under the parallel sweep driver at 1, 2, and 4 workers.

Byte identity, not approximate equality: a single-ulp drift in any
makespan is a contract violation (see ``docs/EXPERIMENTS.md``). To
re-freeze after an *intentional* calibration/model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q

and review the resulting diff like any other code change.
"""

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro import runctx
from repro.experiments import run_sweep

GOLDEN_DIR = Path(__file__).parent / "data"

#: Reduced grids: the full paper grids belong to `-m sweep` (see
#: tests/integration/test_sweep_e2e.py); these keep tier-1 fast while
#: still covering every backend, both workload families, and — through
#: the scheduling scenarios — every placement policy under multi-job
#: contention.
CASES = {
    "fig2": {"size_mb": [1, 16, 256]},
    "fig4": {"nodes": [4, 8], "gb_per_mapper": 0.5},
    "fig5": {"nodes": [2, 4], "data_gb": 4},
    "fig6": {"samples": [1e3, 1e6, 1e9]},
    "fig7": {"nodes": 4, "samples": [1e4, 1e8]},
    "fig8": {"nodes": [2, 4], "samples": 1e9},
    "multijob": {"num_jobs": [2, 4], "nodes": 2},
    "sched_compare": {"nodes": [2, 4]},
    # The cluster-scale family's paper-sized grid (256-1024 nodes) is
    # `-m sweep` territory; this reduced weak-scaling slice still runs
    # every policy under multi-job contention.
    "scale": {"nodes": [16, 32], "num_jobs": 3},
    # Elastic-membership families: churn plans and preemption are part
    # of the byte-frozen contract like any other scheduler decision.
    "elastic": {"nodes": [2, 4]},
    "spot_storm": {"revoked": [0, 2]},
    "sla_mix": {"nodes": [2, 4]},
}

#: The churn families exercise the membership paths end to end, so they
#: are additionally pinned under the parallel sweep driver.
ELASTIC_FIGS = ["elastic", "spot_storm", "sla_mix"]

FIGS = sorted(CASES)


@pytest.fixture
def reference_mode():
    with runctx.using(replace(runctx.current(), engine_reference=True)):
        yield


def _check_against_golden(result) -> None:
    path = GOLDEN_DIR / f"{result.scenario}.golden.json"
    # pretty_json is also exactly what save_sweep writes: the goldens
    # pin the same bytes users get under results/.
    text = result.pretty_json()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden {path.name}; generate with "
        f"REPRO_UPDATE_GOLDEN=1 pytest tests/golden"
    )
    golden = path.read_text()
    assert text == golden, (
        f"{result.scenario}: series drifted from the frozen golden "
        f"({path.name}). If the change is intentional, re-freeze with "
        f"REPRO_UPDATE_GOLDEN=1 and review the diff."
    )


@pytest.mark.parametrize("fig", FIGS)
def test_golden_fast_engine(fig):
    _check_against_golden(run_sweep(fig, CASES[fig], workers=1))


@pytest.mark.parametrize("fig", FIGS)
def test_golden_reference_engine(fig, reference_mode):
    """The pre-overhaul event loop must land on the same bytes."""
    _check_against_golden(run_sweep(fig, CASES[fig], workers=1))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_golden_fig8_parallel_driver(workers):
    """`repro sweep fig8 --workers N` is byte-identical for N=1,2,4."""
    _check_against_golden(run_sweep("fig8", CASES["fig8"], workers=workers))


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("fig", ELASTIC_FIGS)
def test_golden_elastic_families_parallel_driver(fig, workers):
    """Churn/preemption scenarios are byte-identical at 1, 2, 4 workers:
    worker count must never leak into the simulated timeline."""
    _check_against_golden(run_sweep(fig, CASES[fig], workers=workers))


@pytest.mark.parametrize("workers", [2])
def test_golden_fig8_parallel_reference_engine(workers, reference_mode):
    """Parallel driver + reference engine: point tasks carry the
    parent's run context, so even this combination pins to the same
    bytes."""
    _check_against_golden(run_sweep("fig8", CASES["fig8"], workers=workers))


def test_goldens_have_no_strays():
    """Every stored golden corresponds to a case (catches renames)."""
    stored = {p.name for p in GOLDEN_DIR.glob("*.golden.json")}
    expected = {f"{fig}.golden.json" for fig in FIGS}
    assert stored == expected
