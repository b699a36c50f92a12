"""Guards shared by every test directory."""

import multiprocessing
import threading

import pytest

from repro import runctx
from repro.experiments import pool as sweep_pool

#: The run context the test run started in (the one the environment
#: variables describe).
STARTING_CONTEXT = runctx.current()


@pytest.fixture(autouse=True)
def run_context_unchanged():
    """Fail any test that leaves a run context bound behind it: the next
    test would silently run in the wrong modes."""
    yield
    leaked = runctx.current()
    assert leaked is STARTING_CONTEXT, (
        f"test left run context {leaked!r} bound; bind with "
        f"`with runctx.using(...)` so it is undone"
    )


def _shared_pool_pids() -> set:
    return {pid for pool in list(sweep_pool._SHARED.values())  # noqa: SLF001
            for pid in pool.worker_pids()}


@pytest.fixture(autouse=True)
def no_leaked_threads_or_children():
    """Fail any test that ends with a ``repro-*`` thread or a child
    process that was not alive when it started. Workers of the
    session-shared pools (``experiments.pool.shared_pool``) persist by
    design and are exempt."""
    threads = set(threading.enumerate())
    children = {p.pid for p in multiprocessing.active_children()}
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in threads and t.name.startswith("repro-") and t.is_alive()]
    shared = _shared_pool_pids()
    orphans = [p.pid for p in multiprocessing.active_children()
               if p.pid not in children and p.pid not in shared]
    assert not leaked, f"test leaked threads: {leaked}"
    assert not orphans, f"test leaked child processes: {orphans}"
