"""Persistent SweepPool: start-method resolution, worker reuse across
sweeps, registry-epoch respawn, and byte-neutrality of pooling."""

import multiprocessing

import pytest

from repro.experiments import Scenario, register, run_sweep
from repro.experiments.pool import SweepPool, resolve_start_method, shared_pool

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# -- start-method resolution -------------------------------------------------

def test_resolve_prefers_fork_where_available():
    expected = "fork" if HAS_FORK else "spawn"
    assert resolve_start_method() == expected


def test_pool_validates_workers():
    with pytest.raises(ValueError):
        SweepPool(0)


# -- SweepResult metadata ----------------------------------------------------

def test_sweep_records_start_method_outside_canonical_bytes():
    serial = run_sweep("_test_synth", workers=1)
    assert serial.start_method is None
    parallel = run_sweep("_test_synth", workers=2)
    assert parallel.start_method == resolve_start_method()
    # Non-canonical: pooling metadata must never reach the frozen bytes.
    assert "start_method" not in parallel.canonical_json()
    assert parallel.canonical_json() == serial.canonical_json()


# -- worker reuse ------------------------------------------------------------

@pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
def test_explicit_pool_reuses_workers_across_sweeps():
    with SweepPool(2) as pool:
        first = run_sweep("_test_synth", workers=2, pool=pool)
        pids = pool.worker_pids()
        assert len(pids) == 2
        second = run_sweep("_test_synth", {"k": [1, 2, 5]}, pool=pool)
        assert pool.worker_pids() == pids  # same processes, no refork
        assert second.workers == 2  # pool size wins over the workers arg
    assert not pool.started  # context exit tore the workers down
    assert first.canonical_json() == run_sweep("_test_synth").canonical_json()


@pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
def test_shared_pool_is_one_object_per_size():
    assert shared_pool(2) is shared_pool(2)
    assert shared_pool(2) is not shared_pool(3)


@pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
def test_default_pool_capped_at_task_count():
    """A 9-point grid with a huge --workers must not fork idle workers:
    the default shared pool is sized min(workers, tasks)."""
    result = run_sweep("_test_synth", workers=32)
    pool = shared_pool(9)  # 9 grid points
    assert result.canonical_json() == run_sweep("_test_synth").canonical_json()
    assert 0 < len(pool.worker_pids()) <= 9


def _late_point(cfg):
    # Forked workers resolve this through the inherited registry — no
    # pickling, so a test-module function works.
    return {"y": cfg["k"] * cfg["scale"] + cfg["seed"] / 7.0 - 1234 / 7.0}


@pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
def test_shared_pool_respawns_when_registry_grows():
    pool = shared_pool(2)
    run_sweep("_test_synth", workers=2)  # warm it
    pids = pool.worker_pids()
    assert pids
    run_sweep("_test_synth", workers=2)
    assert pool.worker_pids() == pids  # stable registry -> stable workers

    register(Scenario(
        name="_test_pool_late",
        title="late registration",
        description="registered after the shared pool forked",
        run_point=_late_point,
        grid={"k": (1, 2, 3)},
        x="k",
        curves=("y",),
        defaults={"scale": 2.0},
    ), replace=True)
    # The forked workers snapshotted the old registry; the epoch bump
    # must respawn them so the late scenario resolves in workers.
    late = run_sweep("_test_pool_late", workers=2)
    assert late.series[0].ys == [2.0, 4.0, 6.0]
    assert pool.worker_pids() != pids
