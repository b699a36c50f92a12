"""The fleet coordinator: ``repro fleet serve`` behind one socket.

A thin, lock-serialized listener (:class:`~repro.netserve.LineServer`,
one reply per worker frame: registration, heartbeat-driven lease
handout, result acceptance, failure reports) over two cores. All
failure-detection policy lives in the :class:`SweepTracker`; result
slots, cache, journal and assembly are a
:class:`~repro.experiments.driver.SweepLedger`, the one every sweep
path uses, so a fleet-merged result is byte-identical to ``repro
sweep`` by construction.

Durability: every accepted point is appended to a :class:`Journal`
before the accepting frame is acknowledged, so a coordinator that
crashes mid-sweep restarts into a resume — prior points prefill the
tracker and only unfinished work re-dispatches. The journal is removed
only after the final result is assembled (and cached, when a cache is
configured).

Fail-fast: a fleet with no live workers for ``no_worker_timeout_s``
aborts with a clear :class:`FleetError` instead of waiting forever,
and a quarantined (poison) point aborts the sweep and tells every
worker to stop. Hangs are the one failure mode this module refuses to
have.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro import runctx
from repro.experiments.driver import SweepLedger, SweepResult
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import Scenario
from repro.fabric import protocol
from repro.fabric.tracker import SweepTracker, TrackerConfig
from repro.netserve import LineServer
from repro.serve.logs import log_event
from repro.wire import ProtocolError, send_msg

__all__ = ["FleetCoordinator"]

logger = logging.getLogger("repro.fleet")

#: How often the monitor thread advances the tracker's failure
#: detectors and checks for completion. Real time, deliberately small:
#: it bounds how stale a detector can be, not how fast points finish.
_MONITOR_INTERVAL_S = 0.02


class FleetCoordinator(LineServer):
    """One sweep's coordinator: listener + tracker + ledger.

    Parameters
    ----------
    scenario: registry name or a bound :class:`Scenario`.
    overrides: grid/default replacements, as ``--grid`` parses them.
    seed: root seed override.
    port: TCP port (0 = OS-assigned); exclusive with ``socket_path``.
    socket_path: unix socket path to listen on.
    host: TCP bind address (loopback by default — the fleet protocol
        has no authentication).
    config: tracker tuning (:class:`TrackerConfig`).
    journal_path: where accepted points are journaled; an existing
        journal with a matching request key is resumed. None disables
        journaling (and therefore crash-resume).
    cache_dir: optional sweep/point cache directory, used exactly as
        ``repro sweep --cache`` does: whole-sweep hit answers without
        any fleet work, point hits prefill, recorded timings order the
        dispatch, fresh points and their timings are stored.
    no_worker_timeout_s: abort when no live worker exists for this
        long — the fully-dead-fleet fail-fast.
    linger_s: how long to keep answering ``done`` to heartbeats after
        the sweep completes, so workers exit cleanly.
    chaos: optional coordinator fault injection (duck-typed; see
        :mod:`repro.fabric.chaos`): ``crash_after_results=N`` crashes
        the coordinator after N accepted results, leaving the journal.
    clock: time source for the tracker (tests inject a fake one).
    """

    thread_prefix = "repro-fleet"
    metric_prefix = "repro_fleet_"
    gauges = (
        ("workers_live", "Workers currently considered alive"),
        ("pending", "Points waiting in the dispatch queue"),
        ("running", "Point attempts currently leased"),
        ("completed", "Points accepted (including prefilled)"),
        ("redispatched", "Leases revoked and re-enqueued"),
        ("retries", "Failed attempts scheduled for retry"),
        ("speculative", "Speculative attempts launched"),
        ("speculative_wins", "Speculative attempts that won"),
        ("duplicates", "Duplicate result deliveries dropped"),
        ("dead_workers", "Workers declared dead by the detector"),
        ("quarantined", "Points quarantined as poison"),
    )

    def __init__(
        self,
        scenario,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        seed: Optional[int] = None,
        port: Optional[int] = None,
        socket_path: Optional[Path] = None,
        host: str = "127.0.0.1",
        config: Optional[TrackerConfig] = None,
        journal_path: Optional[Path] = None,
        cache_dir: Optional[Path] = None,
        no_worker_timeout_s: float = 30.0,
        linger_s: float = 1.0,
        chaos=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(port, socket_path, host)
        sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
        self.scenario: Scenario = sc.with_overrides(
            dict(overrides) if overrides else None, seed=seed
        )
        #: The sweep's modes: the run context bound at construction.
        #: Workers receive them at registration.
        self.ctx = runctx.current()
        self.config = config or TrackerConfig()
        self.no_worker_timeout_s = no_worker_timeout_s
        self.linger_s = linger_s
        self.chaos = chaos
        self._clock = clock
        self.ledger = SweepLedger(self.scenario, self.ctx, cache_dir=cache_dir)
        self.key, self.points, self.total = (
            self.ledger.key, self.ledger.points, self.ledger.total)
        self.journal = (None if journal_path is None
                        else self.ledger.journal_at(journal_path))

        # Durable sources are read before any worker can connect. After
        # a whole-sweep hit the listener still binds, so eager workers
        # get a clean "done" during linger.
        self.result: Optional[SweepResult] = self.ledger.prefill()
        self.tracker = SweepTracker(
            self.ledger.pending() if self.result is None else (), self.total,
            config=self.config, clock=clock)
        for index, values in enumerate(self.ledger.results):
            if values is not None:
                self.tracker.prefill(index)

        self.error: Optional[str] = None
        self.crashed = False
        self._lock = threading.Lock()
        self._stopping = False
        self._finished_at: Optional[float] = None
        self._no_worker_since: Optional[float] = None

        self._m_frames = self.metrics.counter(
            "repro_fleet_frames_total", "Worker frames handled, by type",
            labels=("type",),
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FleetCoordinator":
        if self._listener is not None:
            return self
        self._listen()
        resumed = self.journal.resumed if self.journal else {}
        log_event(logger, logging.INFO, "fleet_started",
                  endpoint=self.endpoint(), scenario=self.scenario.name,
                  request_key=self.key[:16], total=self.total,
                  resumed_points=len(resumed),
                  cache_prefilled=self.tracker.prefilled - len(resumed))
        self._spawn(self._monitor_loop, name="repro-fleet-monitor")
        return self

    def shutdown(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        self._close_listener()
        self._close_conns()
        self._join_threads(timeout=10)
        if self.journal is not None and self.result is None:
            self.journal.close()  # crash/abort: keep the file for resume
        log_event(logger, logging.INFO, "fleet_stopped",
                  scenario=self.scenario.name, crashed=self.crashed,
                  error=self.error, **self.tracker.accounting())
        self._done.set()

    def close(self) -> None:
        if self.error is None and self.result is None:
            self.error = "coordinator closed before the sweep completed"
        self.shutdown()

    # -- per-worker connections: one reply per frame --------------------------
    def handle_conn(self, stream) -> None:
        while True:
            try:
                msg = self.read_frame(stream)
                if msg is None:
                    return  # worker went away; liveness timeout handles it
                msg = protocol.parse_worker_msg(msg)
            except ProtocolError as exc:
                send_msg(stream, {"type": "error", "message": str(exc)})
                return
            reply = self._handle_frame(msg)
            if reply is None:
                return  # chaos crash: die without acknowledging
            send_msg(stream, reply)
            if reply["type"] in ("done", "abort", "error"):
                return

    # -- frame handling (lock-serialized onto the tracker) --------------------
    def _handle_frame(self, msg: dict[str, Any]) -> Optional[dict[str, Any]]:
        mtype = msg["type"]
        self._m_frames.inc(type=mtype)
        with self._lock:
            if self.crashed:
                return None
            if mtype == "register":
                return self._frame_register(msg)
            if mtype == "heartbeat":
                return self._frame_heartbeat(msg)
            if mtype == "result":
                return self._frame_result(msg)
            return self._frame_failure(msg)

    def _frame_register(self, msg: dict[str, Any]) -> dict[str, Any]:
        worker_key = msg.get("request_key")
        if worker_key is not None and worker_key != self.key:
            log_event(logger, logging.WARNING, "fleet_register_rejected",
                      worker=msg["worker"], reason="request key mismatch")
            return {
                "type": "error",
                "message": (
                    f"request key mismatch: coordinator {self.key[:16]} vs "
                    f"worker {worker_key[:16]} — the worker is running "
                    "different code, calibration, or request; refusing its "
                    "results"
                ),
            }
        self.tracker.register(msg["worker"], msg["capacity"])
        log_event(logger, logging.INFO, "fleet_worker_registered",
                  worker=msg["worker"], capacity=msg["capacity"])
        return protocol.registered_reply(
            msg["worker"], self.scenario, self.key,
            self.ctx.engine_reference, self.ctx.model_reference, self.total,
        )

    def _frame_heartbeat(self, msg: dict[str, Any]) -> dict[str, Any]:
        if self.result is not None:
            return {"type": "done"}
        verdict, grant = self.tracker.heartbeat(msg["worker"], msg["free"])
        if verdict == "lease":
            assert grant is not None
            return protocol.lease_reply(
                [(i, self.points[i]) for i in grant])
        if verdict == "abort":
            return {"type": "abort", "message": self._poison_message()}
        return {"type": verdict}

    def _frame_result(self, msg: dict[str, Any]) -> Optional[dict[str, Any]]:
        index = msg["index"]
        accepted = self.tracker.report_result(
            msg["worker"], index, msg["elapsed_s"])
        if accepted:
            self.ledger.accept(index, msg["values"], msg["elapsed_s"])
            if self._chaos_crash_due():
                return None
        return {"type": "ok", "accepted": accepted}

    def _frame_failure(self, msg: dict[str, Any]) -> dict[str, Any]:
        log_event(logger, logging.WARNING, "fleet_point_failed",
                  worker=msg["worker"], index=msg["index"],
                  error=msg["error"], attempt=msg["attempt"])
        self.tracker.report_failure(msg["worker"], msg["index"], msg["error"])
        return {"type": "ok"}

    def _chaos_crash_due(self) -> bool:
        crash_after = getattr(self.chaos, "crash_after_results", None)
        if crash_after is None or self.crashed:
            return self.crashed
        if self.tracker.counters["results_accepted"] >= crash_after:
            self.crashed = True
            self.error = (
                f"chaos: coordinator crashed after "
                f"{self.tracker.counters['results_accepted']} accepted "
                "results (journal preserved for resume)")
            log_event(logger, logging.WARNING, "fleet_chaos_crash",
                      accepted=self.tracker.counters["results_accepted"])
        return self.crashed

    def _poison_message(self) -> str:
        worst = sorted(self.tracker.poison.items())
        head = "; ".join(f"point {i}: {err}" for i, err in worst[:3])
        more = f" (+{len(worst) - 3} more)" if len(worst) > 3 else ""
        return (
            f"{len(worst)} point(s) quarantined after "
            f"{self.config.max_attempts} failed attempts — {head}{more}"
        )

    # -- monitor: detectors, completion, fail-fast ----------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(_MONITOR_INTERVAL_S)
            with self._lock:
                if self.crashed:
                    break
                self.tracker.tick()
                if self.result is None and self.tracker.finished:
                    self._assemble_locked()
                if self.result is not None:
                    if self._finished_at is None:
                        self._finished_at = self._clock()
                    if self._clock() - self._finished_at >= self.linger_s:
                        break
                    continue
                if self.tracker.poisoned:
                    self.error = self._poison_message()
                    log_event(logger, logging.ERROR, "fleet_poisoned",
                              error=self.error)
                    break
                if not self._check_fleet_alive_locked():
                    break
        self.shutdown()

    def _check_fleet_alive_locked(self) -> bool:
        now = self._clock()
        if self.tracker.live_workers():
            self._no_worker_since = None
            return True
        if self._no_worker_since is None:
            self._no_worker_since = now
            return True
        if now - self._no_worker_since <= self.no_worker_timeout_s:
            return True
        dead_for = now - self._no_worker_since
        verb = ("no worker ever registered"
                if not self.tracker.ever_registered
                else "every worker is dead")
        self.error = (
            f"fleet is fully dead: {verb} for {dead_for:.1f}s "
            f"(> no_worker_timeout_s={self.no_worker_timeout_s}); "
            f"{len(self.tracker.completed)}/{self.total} points completed"
            + (", journal preserved for resume" if self.journal else ""))
        log_event(logger, logging.ERROR, "fleet_dead", error=self.error)
        return False

    def _assemble_locked(self) -> None:
        self.result = result = self.ledger.result(
            workers=max(1, len(self.tracker.live_workers())))
        log_event(logger, logging.INFO, "fleet_done",
                  scenario=self.scenario.name, sha256=result.sha256(),
                  **self.tracker.accounting())

    # -- reporting -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "scenario": self.scenario.name,
                "request_key": self.key[:16],
                "endpoint": self.endpoint(),
                **self.tracker.stats(),
                **self.tracker.accounting(),
            }
