"""A SIGKILLed pool worker must not wedge or corrupt a sweep.

``multiprocessing.Pool`` replaces a killed worker process, but the task
that worker was running silently never completes — before
``SweepPool.reap_dead``/``run_tasks`` a sweep would hang forever
waiting for it. The regression here kills a live worker mid-sweep and
requires the sweep to (a) finish, (b) notice the death, and (c) produce
bytes identical to a serial run — re-dispatch and deduplication must be
invisible in the canonical output.
"""

import os
import signal
import threading
import time

from repro.experiments import Scenario, register, run_sweep
from repro.experiments.pool import SweepPool


def death_slow_point(cfg):
    time.sleep(cfg["delay_s"])
    return {"y": cfg["k"] * 5.0 + cfg["seed"] / 13.0}


SLOW = register(Scenario(
    name="_death_slow",
    title="pool-death scenario",
    description="sleeps per point so a kill lands mid-task",
    run_point=death_slow_point,
    grid={"k": tuple(range(8))},
    x="k",
    curves=("y",),
    defaults={"delay_s": 0.25},
), replace=True)


def test_sweep_survives_sigkilled_worker():
    serial = run_sweep("_death_slow", workers=1)
    with SweepPool(2) as pool:
        # Warm the pool on a cheap two-point grid so worker pids exist
        # before the kill is scheduled (one task would run in-process).
        run_sweep("_death_slow", {"k": [0, 1], "delay_s": 0.0}, pool=pool)
        victims = pool.worker_pids()
        assert len(victims) == 2
        killer = threading.Timer(
            0.4, lambda: os.kill(victims[0], signal.SIGKILL))
        killer.start()
        try:
            result = run_sweep("_death_slow", pool=pool)
        finally:
            killer.cancel()
        assert pool.deaths_detected >= 1, "the kill was never detected"
    assert result.canonical_json() == serial.canonical_json()
    assert result.sha256() == serial.sha256()


def test_concurrent_sweeps_on_one_pool_both_survive_a_kill():
    """Whichever sweep detects the death tears the shared pool down,
    which drops the other sweep's queued tasks too; that sweep must
    notice and re-dispatch instead of waiting forever."""
    serial = {s: run_sweep("_death_slow", seed=s, workers=1) for s in (1, 2)}
    results = {}
    with SweepPool(2) as pool:
        run_sweep("_death_slow", {"k": [0, 1], "delay_s": 0.0}, pool=pool)
        victims = pool.worker_pids()
        threads = [
            threading.Thread(
                target=lambda s=s: results.__setitem__(
                    s, run_sweep("_death_slow", seed=s, pool=pool)),
                daemon=True)
            for s in (1, 2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.4)
        os.kill(victims[0], signal.SIGKILL)
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), (
            "a sweep sharing the pool hung after the other reset it")
        assert pool.deaths_detected >= 1
    for s in (1, 2):
        assert results[s].sha256() == serial[s].sha256()


def test_reap_dead_is_quiet_on_a_healthy_pool():
    with SweepPool(2) as pool:
        assert not pool.reap_dead()  # not even started
        run_sweep("_death_slow", {"k": [0, 1], "delay_s": 0.0}, pool=pool)
        assert not pool.reap_dead()
        assert pool.deaths_detected == 0
