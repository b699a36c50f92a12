"""Persistent worker pools for the sweep driver.

A :class:`SweepPool` keeps its worker processes alive across sweeps,
so the fork/import cost — which dominates wide, cheap grids — is paid
once per session, not once per sweep.

Determinism is unaffected: workers are stateless with respect to
results (each task re-applies the parent's engine and model modes and
builds a fresh ``Environment``), so pooled, per-sweep, and serial runs
produce byte-identical ``SweepResult`` content.

The wrinkles the pool handles:

- **Start method.** ``fork`` is preferred (cheap, and children inherit
  the scenario registry so test-registered scenarios sweep too); where
  it is unavailable the pool falls back to ``spawn``. The environment
  variable ``REPRO_SWEEP_START_METHOD`` overrides the choice
  (``fork``/``spawn``/``forkserver``), and the method actually used is
  surfaced as non-canonical ``SweepResult.start_method`` metadata.
- **Registry staleness.** A forked pool snapshots the parent's scenario
  registry at creation. Registering a scenario afterwards bumps
  :func:`repro.experiments.registry.epoch`; the pool notices on its
  next use and transparently respawns, so late-registered scenarios
  always resolve in workers.
- **Worker death.** A pool worker SIGKILLed mid-task used to wedge the
  sweep forever: ``multiprocessing.Pool`` replaces the process but the
  in-flight task's result simply never arrives. :meth:`SweepPool.reap_dead`
  detects the death (exitcode or pid-set drift against the spawn-time
  baseline), respawns the pool, and :meth:`SweepPool.run_tasks` — the
  dispatch loop the driver and the serving layer use — re-dispatches
  every unfinished task. Tasks are idempotent pure functions, so a
  re-dispatch can at worst produce a duplicate result, which is
  deduplicated by index on receipt.
- **Concurrent callers.** The ``repro serve`` daemon multiplexes many
  concurrent jobs onto one pool from multiple threads, so the pool's
  lifecycle (lazy spawn, registry respawn, close) is guarded by a lock.
  The underlying ``multiprocessing.Pool`` task queue is itself
  thread-safe, so interleaved :meth:`SweepPool.run_tasks` calls from
  different threads share the workers without perturbing results —
  dispatch order was never canonical to begin with. A pool torn down
  by one caller (a death, a registry respawn) loses every caller's
  queued tasks; each ``run_tasks`` notices and re-dispatches its own.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import threading
from queue import Empty, SimpleQueue
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.experiments import registry

__all__ = [
    "START_METHOD_ENV",
    "SweepPool",
    "close_shared_pools",
    "resolve_start_method",
    "shared_pool",
]

START_METHOD_ENV = "REPRO_SWEEP_START_METHOD"

logger = logging.getLogger("repro.pool")


def resolve_start_method(override: Optional[str] = None) -> str:
    """The multiprocessing start method sweeps will use.

    Precedence: explicit ``override`` argument, then the
    ``REPRO_SWEEP_START_METHOD`` environment variable, then ``fork``
    where available (``spawn`` otherwise). An unsupported name raises
    ``ValueError`` naming the platform's available methods — previously
    platforms without fork silently changed behavior; now the choice is
    explicit and inspectable.
    """
    available = multiprocessing.get_all_start_methods()
    choice = override if override is not None else os.environ.get(START_METHOD_ENV)
    if choice:
        if choice not in available:
            raise ValueError(
                f"unsupported sweep start method {choice!r} (via "
                f"{START_METHOD_ENV} or override); available on this "
                f"platform: {', '.join(available)}"
            )
        return choice
    return "fork" if "fork" in available else "spawn"


class SweepPool:
    """A reusable pool of sweep worker processes.

    Workers are created lazily on first use and stay alive until
    :meth:`close` (or interpreter exit, for the shared pools below), so
    consecutive sweeps skip the per-sweep fork/import cost. Safe to
    pass to any number of ``run_sweep``/``run_shard`` calls; the driver
    never closes a pool it was handed.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = resolve_start_method(start_method)
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._registry_epoch: Optional[int] = None
        self._lock = threading.Lock()
        #: PIDs the live pool was spawned with — the baseline reap_dead
        #: compares against to detect killed-and-respawned workers.
        self._pids: Optional[frozenset[int]] = None
        #: Worker deaths detected (and survived) over this pool's life.
        self.deaths_detected = 0
        #: Bumped whenever a live pool is torn down.
        self._generation = 0

    @property
    def started(self) -> bool:
        return self._pool is not None

    def _ensure(self) -> multiprocessing.pool.Pool:
        # Forked children snapshot the registry; respawn when it grew so
        # scenarios registered after the fork still resolve in workers.
        # Locked: concurrent server threads must never double-spawn or
        # respawn a pool out from under each other.
        with self._lock:
            epoch = registry.epoch()
            if self._pool is not None and self._registry_epoch != epoch:
                self._close_locked()
            if self._pool is None:
                ctx = multiprocessing.get_context(self.start_method)
                self._pool = ctx.Pool(processes=self.workers)
                self._registry_epoch = epoch
                self._pids = frozenset(p.pid for p in self._pool._pool)  # noqa: SLF001
            return self._pool

    def reap_dead(self) -> bool:
        """Detect a killed worker process; tear the pool down if so.

        A ``multiprocessing.Pool`` survives a SIGKILLed worker (its
        maintenance thread forks a replacement) but the task that worker
        was executing is silently lost — the ``AsyncResult`` never
        completes and a bare ``imap_unordered`` consumer wedges forever.
        Detection is two-pronged because the maintenance thread races
        us: a dead ``Process`` object still in the pool list has a
        non-None exitcode, and a replaced one changes the pid set away
        from the spawn-time baseline. On detection the pool is torn
        down (the next use respawns it cleanly) and the caller must
        re-dispatch whatever it has not yet received — which is exactly
        what :meth:`run_tasks` does.

        Returns True when a death was detected (pool was reset).
        """
        with self._lock:
            if self._pool is None:
                return False
            procs = list(self._pool._pool)  # noqa: SLF001
            dead = any(p.exitcode is not None for p in procs)
            if not dead and self._pids is not None:
                dead = frozenset(p.pid for p in procs) != self._pids
            if not dead:
                return False
            self.deaths_detected += 1
            logger.warning("pool worker died; respawning %d worker(s) "
                           "(deaths so far: %d)", self.workers,
                           self.deaths_detected)
            self._close_locked()
            return True

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        poll_s: float = 0.2,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Any]:
        """Death-tolerant ``imap_unordered``: stream ``fn(task)`` results
        in completion order — the one dispatch loop under offline sweeps
        and the serving daemon.

        Each task is dispatched on its own (``apply_async``), so long
        tasks never serialize short ones. When the completion queue stays
        silent for ``poll_s`` the pool is health-checked; a detected
        death — or a reset by another caller sharing the pool — respawns
        the workers and re-dispatches every unreceived dispatched task.
        Tasks are idempotent pure functions (the sweep contract), so a
        duplicate completion is harmless: the first result wins. Task
        exceptions propagate; only silent worker death is retried.

        Without ``stop`` every task is queued at once. With it, at most
        ``workers`` tasks are in flight and ``stop()`` is asked on every
        refill and poll; once it is True nothing new is dispatched, the
        in-flight tasks drain and the stream ends — so a cancelled job
        stops costing workers after one wave.
        """
        tasks = list(tasks)
        total = len(tasks)
        cap = total if stop is None else self.workers
        completions: SimpleQueue = SimpleQueue()
        received = [False] * total
        dispatched = done = 0
        generation = self._generation

        def submit(i: int) -> None:
            self._ensure().apply_async(
                fn, (tasks[i],),
                callback=lambda r: completions.put((i, r, None)),
                error_callback=lambda e: completions.put((i, None, e)),
            )

        while True:
            if stop is None or not stop():
                while dispatched < total and dispatched - done < cap:
                    submit(dispatched)
                    dispatched += 1
            if done == dispatched:
                return
            try:
                i, result, error = completions.get(timeout=poll_s)
            except Empty:
                if self.reap_dead() or self._generation != generation:
                    generation = self._generation
                    for i in range(dispatched):
                        if not received[i]:
                            submit(i)
                continue
            if received[i]:
                continue  # duplicate from a pre-respawn dispatch
            if error is not None:
                raise error
            received[i] = True
            done += 1
            yield result

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (empty before first use) —
        lets tests assert that consecutive sweeps reused the same
        workers instead of forking new ones."""
        if self._pool is None:
            return []
        return [p.pid for p in self._pool._pool]  # noqa: SLF001

    def close(self) -> None:
        """Tear the workers down; the next use respawns them."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._pool is not None:
            # Tasks queued on the old pool are gone with it: the bump
            # tells every run_tasks sharing this pool to re-dispatch.
            self._generation += 1
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._registry_epoch = None
            self._pids = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Session-shared pools, keyed by (workers, start method). run_sweep
#: defaults to these, so the CLI, the perf harness, and the golden/sweep
#: tests all amortize worker startup without any explicit plumbing.
_SHARED: dict[tuple[int, str], SweepPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(workers: int, start_method: Optional[str] = None) -> SweepPool:
    """The session-wide persistent pool for ``workers`` processes."""
    method = resolve_start_method(start_method)
    key = (workers, method)
    with _SHARED_LOCK:
        pool = _SHARED.get(key)
        if pool is None:
            pool = _SHARED[key] = SweepPool(workers, method)
        return pool


def close_shared_pools() -> None:
    """Terminate every shared pool (also runs at interpreter exit)."""
    while True:
        with _SHARED_LOCK:
            if not _SHARED:
                return
            _, pool = _SHARED.popitem()
        pool.close()


atexit.register(close_shared_pools)
