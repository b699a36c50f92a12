"""The run context: per-thread binding, env entry, concurrent modes.

Modes live in a :class:`~repro.runctx.RunContext` bound per thread, not
in process-wide switches. So sweeps in different modes may run side by
side in one process, and in-process fleet workers may run points at the
same time, and every result must still match the serial sweep of its
own mode byte for byte.
"""

import itertools
import json
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

from repro import runctx
from repro.experiments import driver, run_sweep
from repro.experiments.driver import SweepResult
from repro.fabric import run_chaos_fleet
from repro.obs.metrics import MetricsRegistry
from repro.obs.traceexport import TraceCollector
from repro.runctx import RunContext

FIG8 = {"nodes": [2, 4, 8], "samples": 1e9}
MODES = list(itertools.product([False, True], repeat=2))


def _ctx(engine_reference: bool, model_reference: bool) -> RunContext:
    return replace(runctx.current(), engine_reference=engine_reference,
                   model_reference=model_reference)


def _run_in_threads(targets, timeout_s=120.0):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s)
    assert not any(t.is_alive() for t in threads), "a thread never finished"


def test_using_binds_for_the_block_only():
    before = runctx.current()
    ctx = replace(before, engine_reference=not before.engine_reference)
    with runctx.using(ctx) as bound:
        assert bound is ctx
        assert runctx.current() is ctx
    assert runctx.current() is before


def test_unbound_thread_sees_from_env():
    seen = []
    other = replace(RunContext.from_env(), model_reference=True,
                    engine_reference=True)
    with runctx.using(other):
        _run_in_threads([lambda: seen.append(runctx.current())])
        assert runctx.current() is other
    assert seen == [RunContext.from_env()]
    assert seen[0] is RunContext.from_env()


def test_context_sent_to_a_worker_keeps_modes_only():
    ctx = RunContext(engine_reference=True, model_reference=False,
                     metrics=MetricsRegistry(), traces=TraceCollector())
    assert pickle.loads(pickle.dumps(ctx)) == RunContext(engine_reference=True)


def test_four_modes_in_four_threads_match_serial():
    """All four engine x model combos at once, one thread each, in one
    process: every sha256 equals the serial sweep of its own mode."""
    serial = {}
    for modes in MODES:
        with runctx.using(_ctx(*modes)):
            serial[modes] = run_sweep("fig8", FIG8).sha256()
    assert len(set(serial.values())) > 1  # the model modes really differ

    got = {}
    barrier = threading.Barrier(len(MODES))

    def sweep(modes):
        def target():
            with runctx.using(_ctx(*modes)):
                barrier.wait(timeout=30)
                got[modes] = run_sweep("fig8", FIG8).sha256()
        return target

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the threads finely
    try:
        _run_in_threads([sweep(m) for m in MODES])
    finally:
        sys.setswitchinterval(interval)
    assert got == serial


def test_chaos_fleet_runs_points_concurrently(monkeypatch, tmp_path):
    """Three in-process fleet workers, reference engine and model: at
    least two points are in flight at once, and the merge is still
    byte-identical to the serial sweep."""
    ctx = _ctx(True, True)
    overrides = {"nodes": [2, 3, 4, 5, 6, 7], "samples": 1e8}
    with runctx.using(ctx):
        serial = run_sweep("fig8", overrides).sha256()

    execute_point = driver._execute_point
    lock = threading.Condition()
    inflight = [0]
    peak = [0]

    def observed(*args, **kwargs):
        # The first point waits (bounded) for a second to start: two
        # workers that could run at once then always do.
        with lock:
            inflight[0] += 1
            peak[0] = max(peak[0], inflight[0])
            lock.notify_all()
            lock.wait_for(lambda: peak[0] >= 2, timeout=5.0)
        try:
            assert runctx.current().model_reference
            assert runctx.current().engine_reference
            return execute_point(*args, **kwargs)
        finally:
            with lock:
                inflight[0] -= 1

    monkeypatch.setattr(driver, "_execute_point", observed)
    with runctx.using(ctx):
        result, stats, _ = run_chaos_fleet(
            "fig8", overrides, journal_path=tmp_path / "j.jsonl",
            workers=3, timeout_s=90.0, linger_s=0.3)
    assert peak[0] >= 2
    assert result.sha256() == serial
    assert stats["accepted"] == stats["total"]


def test_env_entry_matches_bound_context(tmp_path):
    """`REPRO_MODEL_REFERENCE=1 repro sweep` in a fresh interpreter lands
    on the same bytes as the same sweep under a bound context."""
    grid = {"nodes": [2, 4], "samples": 1e9}
    with runctx.using(replace(RunContext.from_env(), model_reference=True)):
        expected = run_sweep("fig8", grid).sha256()

    src = Path(runctx.__file__).resolve().parents[1]
    env = dict(os.environ, REPRO_MODEL_REFERENCE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "fig8",
         "--grid", "nodes=2,4", "--grid", "samples=1e9", "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = SweepResult.from_dict(json.loads((out / "fig8.json").read_text()))
    assert written.sha256() == expected
    assert f"sha256 {expected[:16]}" in proc.stdout


def test_collect_metrics_registry_is_per_point():
    """`repro sweep -v`: each point records into a registry of its own,
    so two equal points report equal counters, never a running total."""
    result = run_sweep("fig8", {"nodes": [2, 2], "samples": 1e9},
                       collect_metrics=True)
    first, second = (p["metrics"] for p in result.points)
    assert first == second
