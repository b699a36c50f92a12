"""The fleet worker: connect, register, heartbeat, execute, deliver.

A worker is a deliberately thin client of ``repro serve`` (and of its
one-job form, ``repro fleet serve``) around the repo's existing point
machinery: every leased point runs through the same
``_run_point_task`` the multiprocessing pool uses, under a run context
holding the leasing job's engine/model reference modes — so the values
a worker produces are bit-identical to a serial sweep on the same
code. The context is bound in the worker's own thread only, so workers
running as threads of one process execute points concurrently.

The loop is strict request/reply over one persistent connection:

1. connect (with jittered backoff up to ``reconnect_timeout_s``);
2. ``register`` with the protocol version → ``registered`` (a version
   mismatch is refused loudly: :class:`FleetError`);
3. heartbeat on a jittered cadence; a lease names its job, the job's
   scenario spec and request key. On the first lease of a job the
   worker **rebuilds the scenario locally, recomputes the key, and on a
   mismatch sends ``refuse`` and quits** — the same consistency check
   shard merging runs, catching code drift before a wrong-but-plausible
   value can enter a sweep. Each point executes inline and its result
   (or failure) is delivered and acknowledged immediately;
4. ``done`` → clean exit, ``abort``/``error`` → :class:`FleetError`,
   ``reregister`` or any socket error → reconnect and re-register.

Work is never wasted: a result computed across a partition is
delivered after reconnecting, and the daemon accepts it (or dedups it)
under its exactly-once ledger.

Chaos hooks (duck-typed, see :mod:`repro.fabric.chaos`) simulate the
failure schedule the tests script: abrupt kills after N delivered
results, heartbeat-silence windows, delayed and duplicated deliveries.
"""

from __future__ import annotations

import logging
import os
import random
import socket as socket_mod
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro import runctx
from repro.experiments.cache import PointCache, request_key
from repro.experiments.driver import _run_point_task
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import GridError
from repro.serve.client import Address, connect
from repro.serve.logs import log_event
from repro.serve.protocol import PROTOCOL_VERSION
from repro.wire import ProtocolError, recv_msg, send_msg

__all__ = ["FleetError", "FleetWorker"]

logger = logging.getLogger("repro.fleet.worker")


class FleetError(RuntimeError):
    """A fleet-level failure: dead fleet, poisoned point, key mismatch.

    Deliberately loud — every unrecoverable condition surfaces as a
    clear error instead of a hang, because a distributed sweep that
    silently stalls is the worst possible diagnostic experience.
    """


class _Killed(Exception):
    """Internal: the chaos schedule says this worker dies *now*."""


class FleetWorker:
    """One fleet worker process/thread.

    Parameters
    ----------
    address: daemon endpoint (:class:`repro.serve.client.Address`).
    name: stable worker identity across reconnects; defaults to
        ``<hostname>-<pid>``. Re-registering under the same name
        supersedes the previous incarnation on the daemon.
    capacity: concurrent points this worker advertises. Execution is
        inline (one at a time); capacity>1 simply batches leases.
    heartbeat_s: base heartbeat cadence; each sleep is jittered to
        ``[0.5, 1.5)×`` so a fleet started together does not thunder.
    cache_dir: optional point-cache directory consulted before
        executing and updated after — a worker on a warm cache answers
        leases without recomputing.
    reconnect_timeout_s: how long connection attempts may keep failing
        (from the last successful contact) before the worker gives up
        with a :class:`FleetError`.
    io_timeout_s: blocking-read limit per reply; a daemon that
        goes silent longer looks like a dead connection → reconnect.
    chaos: optional scripted fault injection (duck-typed; see
        :class:`repro.fabric.chaos.WorkerChaos`).
    rng: jitter source, injectable for determinism in tests.
    """

    def __init__(
        self,
        address: Address,
        *,
        name: Optional[str] = None,
        capacity: int = 1,
        heartbeat_s: float = 0.2,
        cache_dir: Optional[Path] = None,
        reconnect_timeout_s: float = 10.0,
        io_timeout_s: float = 30.0,
        chaos=None,
        rng: Callable[[], float] = random.random,
    ):
        self.address = address
        self.name = name or f"{socket_mod.gethostname()}-{os.getpid()}"
        self.capacity = max(1, int(capacity))
        self.heartbeat_s = heartbeat_s
        self.reconnect_timeout_s = reconnect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.chaos = chaos
        self._rng = rng
        self.point_cache = PointCache(Path(cache_dir)) if cache_dir else None
        #: request key -> (scenario, run context) of every job leased so
        #: far, rebuilt and checked on its first lease.
        self._jobs: dict[str, tuple] = {}
        self._silences_done: set[int] = set()
        self._stop = threading.Event()
        self.report: dict[str, Any] = {
            "worker": self.name,
            "results_sent": 0,
            "failures_sent": 0,
            "duplicates_sent": 0,
            "cache_hits": 0,
            "reconnects": 0,
            "reregisters": 0,
            "killed": False,
        }

    def stop(self) -> None:
        """Ask the worker to wind down at the next safe point (between
        points / frames / sleeps). Used by in-process harnesses; a
        standalone worker process just gets signalled instead."""
        self._stop.set()

    def _backoff_s(self, attempt: int) -> float:
        """Reconnect delay for the ``attempt``-th consecutive failure:
        exponential from 50 ms, capped at 0.5 s, jittered by ±50% so a
        fleet of workers orphaned together does not reconnect in
        lockstep. The exponent itself is clamped *before* ``2 **
        attempt`` is evaluated — during a long daemon outage the
        attempt counter keeps climbing, and past ~1000 doublings the
        intermediate power no longer fits in a float (``OverflowError``)
        even though the result would just be clamped to 0.5 s anyway."""
        return min(0.5, 0.05 * 2.0 ** min(attempt, 16)) * (0.5 + self._rng())

    # -- top-level loop ------------------------------------------------------
    def run(self) -> dict[str, Any]:
        """Work until the daemon says ``done`` (returns the
        worker's report), the chaos schedule kills this worker (report
        has ``killed=True``), or the fleet is unreachable/aborted
        (raises :class:`FleetError`)."""
        last_contact = time.monotonic()
        attempt = 0
        while not self._stop.is_set():
            try:
                sock = connect(self.address, timeout=2.0)
            except OSError as exc:
                if time.monotonic() - last_contact > self.reconnect_timeout_s:
                    raise FleetError(
                        f"worker {self.name}: daemon at "
                        f"{self.address} unreachable for more than "
                        f"{self.reconnect_timeout_s}s: {exc}"
                    ) from exc
                self._stop.wait(self._backoff_s(attempt))
                attempt += 1
                continue
            attempt = 0
            sock.settimeout(self.io_timeout_s)
            stream = sock.makefile("rwb")
            try:
                self._session(stream)
                return self.report
            except _Killed:
                self.report["killed"] = True
                log_event(logger, logging.WARNING, "worker_chaos_killed",
                          worker=self.name,
                          results_sent=self.report["results_sent"])
                return self.report
            except (OSError, ProtocolError) as exc:
                last_contact = time.monotonic()  # we *had* a connection
                self.report["reconnects"] += 1
                log_event(logger, logging.INFO, "worker_reconnecting",
                          worker=self.name, error=str(exc))
            finally:
                for closer in (stream.close, sock.close):
                    try:
                        closer()
                    except OSError:
                        pass
        return self.report  # stop() mid-reconnect: wind down quietly

    # -- one connection ------------------------------------------------------
    def _session(self, stream) -> None:
        self._register(stream)
        while not self._stop.is_set():
            self._maybe_die()
            self._maybe_silence()
            reply = self._rpc(stream, {"type": "heartbeat", "worker": self.name,
                                       "free": self.capacity})
            rtype = reply.get("type")
            if rtype == "lease":
                self._execute_lease(stream, reply)
            elif rtype == "ok":
                self._stop.wait(self.heartbeat_s * (0.5 + self._rng()))
            elif rtype == "done":
                log_event(logger, logging.INFO, "worker_done",
                          **self.report)
                return
            elif rtype == "reregister":
                self.report["reregisters"] += 1
                self._register(stream)
            elif rtype == "abort":
                raise FleetError(
                    f"worker {self.name}: sweep aborted by the daemon: "
                    f"{reply.get('message', 'no reason given')}")
            else:
                raise FleetError(
                    f"worker {self.name}: daemon error: "
                    f"{reply.get('message', reply)}")

    def _register(self, stream) -> None:
        reply = self._rpc(stream, {"type": "register", "worker": self.name,
                                   "capacity": self.capacity,
                                   "version": PROTOCOL_VERSION})
        if reply.get("type") == "error":
            raise FleetError(
                f"worker {self.name}: registration refused: "
                f"{reply.get('message')}")
        if reply.get("type") != "registered":
            raise ProtocolError(
                f"expected 'registered' reply, got {reply.get('type')!r}")
        log_event(logger, logging.INFO, "worker_registered", worker=self.name)

    def _job(self, stream, lease: dict[str, Any]) -> tuple:
        """The leasing job's scenario and run context, rebuilt from the
        lease on first sight and checked against its request key."""
        key = lease["request_key"]
        if key in self._jobs:
            return self._jobs[key]
        spec = lease["scenario"]
        ctx = runctx.RunContext(engine_reference=bool(lease["reference"]),
                                model_reference=bool(lease["model_reference"]))
        try:
            sc = get_scenario(spec["name"]).with_overrides(
                {**spec["grid"], **spec["defaults"]}, seed=spec["seed"])
            mine = request_key(sc, ctx)
            problem = None if mine == key else (
                f"request key mismatch for job {lease['job']} — daemon "
                f"{key[:16]} vs locally recomputed {mine[:16]}. The worker "
                "is running different code or calibration than the "
                "daemon; its values could silently diverge, so it refuses "
                "to participate.")
        except (KeyError, GridError) as exc:
            problem = (f"cannot rebuild scenario {spec.get('name')!r} of job "
                       f"{lease['job']} from the daemon's spec ({exc}); "
                       "worker code is too old for this sweep")
        if problem is not None:
            self._rpc(stream, {"type": "refuse", "worker": self.name,
                               "job": lease["job"], "error": problem})
            raise FleetError(f"worker {self.name}: {problem}")
        log_event(logger, logging.INFO, "worker_job", worker=self.name,
                  job=lease["job"], scenario=spec["name"], request_key=key[:16])
        self._jobs[key] = (sc, ctx)
        return sc, ctx

    # -- lease execution -----------------------------------------------------
    def _execute_lease(self, stream, lease: dict[str, Any]) -> None:
        sc, ctx = self._job(stream, lease)
        frame = {"worker": self.name, "job": lease["job"]}
        for point in lease["points"]:
            if self._stop.is_set():
                return
            self._maybe_die()
            index, cfg = point["index"], point["cfg"]
            try:
                values, elapsed = self._execute_point(sc, ctx, index, cfg)
            except _Killed:
                raise
            except Exception as exc:  # the point itself failed
                self._rpc(stream, {**frame, "type": "point_failed", "index": index,
                                   "error": f"{type(exc).__name__}: {exc}"})
                self.report["failures_sent"] += 1
                continue
            self._chaos_delay()
            msg = {**frame, "type": "result", "index": index,
                   "values": values, "elapsed_s": elapsed}
            self._rpc(stream, msg)
            self.report["results_sent"] += 1
            if self._chaos_duplicate():
                self._rpc(stream, msg)
                self.report["duplicates_sent"] += 1

    def _execute_point(
        self, sc, ctx: runctx.RunContext, index: int, cfg: dict[str, Any]
    ) -> tuple[dict[str, float], float]:
        if self.point_cache is not None:
            key, hit = self.point_cache.lookup(sc, cfg, ctx)
            if hit is not None:
                self.report["cache_hits"] += 1
                return hit, 0.0
        _, values, elapsed, _ = _run_point_task((sc.name, index, cfg, ctx, False))
        if self.point_cache is not None:
            self.point_cache.store(sc.name, key, values)
        return values, elapsed

    # -- plumbing ------------------------------------------------------------
    def _rpc(self, stream, msg: dict[str, Any]) -> dict[str, Any]:
        send_msg(stream, msg)
        return recv_msg(stream)

    # -- chaos hooks ---------------------------------------------------------
    def _maybe_die(self) -> None:
        kill_after = getattr(self.chaos, "kill_after_results", None)
        if (kill_after is not None
                and self.report["results_sent"] >= kill_after):
            # Abrupt: no goodbye frame, no lease handback — exactly what
            # SIGKILL looks like from the daemon's side.
            raise _Killed()

    def _maybe_silence(self) -> None:
        """Scripted heartbeat drops: after delivering N results, go
        silent for a window (a GC pause / network partition stand-in)
        and let the daemon's failure detector do its worst."""
        for i, (after_results, duration) in enumerate(
                getattr(self.chaos, "silences", ()) or ()):
            if (i not in self._silences_done
                    and self.report["results_sent"] >= after_results):
                self._silences_done.add(i)
                log_event(logger, logging.INFO, "worker_chaos_silence",
                          worker=self.name, duration_s=duration)
                self._stop.wait(duration)

    def _chaos_delay(self) -> None:
        delay = getattr(self.chaos, "delay_results_s", None)
        if delay:
            self._stop.wait(delay)

    def _chaos_duplicate(self) -> bool:
        return bool(getattr(self.chaos, "duplicate_results", False))
