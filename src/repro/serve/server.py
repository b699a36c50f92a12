"""The one simulation daemon: ``repro serve`` and ``repro fleet serve``.

A :class:`~repro.netserve.LineServer` whose connections are either
client requests (one request per connection, a stream of events back)
or ``repro fleet worker`` sessions (one reply per frame) — the first
frame decides, see :mod:`repro.serve.protocol`. Behind it, a job table;
every admitted job is a :class:`~repro.serve.jobs.Job` plus a
:class:`~repro.experiments.driver.SweepLedger` plus a
:class:`~repro.fabric.tracker.SweepTracker` over the ledger's pending
points. The tracker leases the points to two kinds of lessee:

- **the local pool**, fed by the job's executor thread through the one
  dispatch loop (:meth:`~repro.experiments.pool.SweepPool.run_tasks`):
  a point is leased the moment a pool slot frees, so the local path
  never polls and never waits for a wave;
- **registered fleet workers**, which heartbeat for leases. A lease
  names its job, the job's scenario spec and request key; worker
  liveness (one :class:`~repro.fabric.tracker.WorkerTable`) is ticked
  only while a remote worker is alive.

Correctness properties, in order of importance:

- **Byte identity.** Every job assembles through its ledger — the
  cache, point-cache and assembly policy of ``repro sweep --cache`` —
  from values of the same point function, so a payload is
  byte-identical to ``repro sweep`` output at any concurrency, in any
  engine/model mode, whoever ran its points.
- **Exactly once.** The tracker accepts each point first-wins; late,
  duplicate and revoked deliveries are counted and dropped.
- **Coalescing.** Concurrent submits with one canonical request key
  execute the grid once; every attached client receives the same
  payload.
- **Prompt cancellation.** A cancelled or reaped job leaves the lease
  table at once: no new point is leased, the local pool drains its
  in-flight points (banked for a resubmit), and a worker's late result
  is acknowledged and dropped.

A client that goes away mid-stream just loses its subscription; only a
``cancel``, the abandoned-job reaper, or ``shutdown now`` ends a job.
``workers=0`` runs no local pool: every point goes to fleet workers,
and a job with no live worker for ``no_worker_timeout_s`` fails.
:meth:`ReproServer.serve_one` is ``repro fleet serve``: one job,
admitted at start with its journal, whose end stops the daemon.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro.experiments.cache import PointCache, TimingStore
from repro.experiments.driver import SweepLedger, _run_point_task
from repro.experiments.pool import SweepPool
from repro.experiments.scenario import GridError
from repro.fabric.tracker import SweepTracker, TrackerConfig, WorkerTable
from repro.netserve import LineServer
from repro.obs.prometheus import CONTENT_TYPE
from repro.serve import protocol
from repro.serve.jobs import DONE, TERMINAL_STATES, Job, JobRequest, JobTable
from repro.serve.logs import log_event, server_logger
from repro.wire import send_msg

__all__ = ["ReproServer"]

#: The local pool's lessee name. Worker frames must name a non-empty
#: worker, so no remote worker can pose as it.
_LOCAL = ""

#: How often the liveness monitor advances the failure detectors while
#: a remote worker is alive. It bounds how stale a detector can be,
#: not how fast points finish.
_MONITOR_INTERVAL_S = 0.02

#: How often an executor waiting on remote leases rechecks its job
#: (cancel, reaper, no-worker fail-fast).
_POLL_S = 0.05

#: How long shutdown keeps answering heartbeats with the farewell
#: (``done``/``abort``) so registered workers exit cleanly.
_LINGER_S = 1.0


class ReproServer(LineServer):
    """The daemon: a listener, a job table, a lease table per job.

    Parameters
    ----------
    port: TCP port to listen on (0 = OS-assigned); exclusive with
        ``socket_path``.
    socket_path: unix socket path to listen on.
    host: TCP bind address (default loopback; this protocol has no
        authentication, so binding wider is an explicit choice).
    workers: local pool worker processes; 0 runs no pool, so fleet
        workers execute every point.
    cache_dir: optional cache directory; when set, jobs go through the
        whole-sweep and per-point caches (and record point timings)
        exactly as ``repro sweep --cache`` does.
    pool: an existing :class:`SweepPool` to serve on (left open on
        shutdown unless ``owns_pool=True``). Default: a dedicated pool
        the server closes on shutdown.
    abandon_timeout_s: how long a running job may outlive its last
        streaming client before it is reaped (cancelled). A job keeps
        running while *any* coalesced client is still attached, and
        detach-submitted jobs are never reaped (their clients poll by
        job id). None disables reaping.
    config: lease, liveness and retry tuning (:class:`TrackerConfig`).
    no_worker_timeout_s: a job with no lessee at all (no pool, no live
        worker) for this long fails — the dead-fleet fail-fast.
    linger_s: how long shutdown answers heartbeats with the farewell.
    chaos: optional fault injection (duck-typed, see
        :mod:`repro.fabric.chaos`): ``crash_after_results=N`` crashes
        the daemon after N accepted results, leaving the journal.
    clock: time source for the job and lease tables (tests inject a
        fake one).
    """

    thread_prefix = "repro-serve"
    metric_prefix = "repro_serve_"
    gauges = (
        ("jobs", "Jobs admitted since start"),
        ("active_jobs", "Jobs currently queued or running"),
        ("coalesced_submits", "Submits coalesced onto an in-flight job"),
        ("workers", "Pool worker processes"),
        ("workers_live", "Fleet workers currently considered alive"),
        ("uptime_s", "Daemon uptime in seconds"),
    )

    def __init__(
        self,
        *,
        port: Optional[int] = None,
        socket_path: Optional[Path] = None,
        host: str = "127.0.0.1",
        workers: int = 2,
        cache_dir: Optional[Path] = None,
        pool: Optional[SweepPool] = None,
        owns_pool: Optional[bool] = None,
        abandon_timeout_s: Optional[float] = 30.0,
        config: Optional[TrackerConfig] = None,
        no_worker_timeout_s: float = 30.0,
        linger_s: float = _LINGER_S,
        chaos=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(port, socket_path, host)
        if owns_pool is None:
            owns_pool = pool is None
        if pool is None and workers:
            pool = SweepPool(workers)
        self.pool = pool
        self.workers = pool.workers if pool is not None else 0
        self._owns_pool = owns_pool
        self.abandon_timeout_s = abandon_timeout_s
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.point_cache = PointCache(self.cache_dir) if self.cache_dir else None
        self.timings = TimingStore(self.cache_dir) if self.cache_dir else None
        self.table = JobTable(clock=clock)
        self.config = config or TrackerConfig()
        self.fleet = WorkerTable(self.config.worker_timeout_s, clock)
        self.no_worker_timeout_s = no_worker_timeout_s
        self.linger_s = linger_s
        self.chaos = chaos
        self.crashed = False
        self._clock = clock
        self._lock = threading.Lock()
        #: Signalled on every lease-table change an executor may await.
        self._changed = threading.Condition(self._lock)
        #: Jobs whose points are leasable, in run order.
        self._running: dict[str, Job] = {}
        self._only: Optional[Job] = None
        self._sessions = 0
        self._monitoring = False
        self._farewell: Optional[dict[str, Any]] = None
        self._draining = False
        self._closer: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self.points_executed = 0
        self.cache_hits = 0
        # Daemon metrics are always on (unlike simulation telemetry):
        # the registry is private to this server instance and costs a
        # few counter bumps per request — nothing on any simulation
        # path. The `metrics` verb renders it as Prometheus text.
        self._m_requests = self.metrics.counter(
            "repro_serve_requests_total", "Requests handled, by verb",
            labels=("verb",),
        )
        self._m_latency = self.metrics.histogram(
            "repro_serve_request_seconds",
            "Request handling wall time (includes streaming), by verb",
            labels=("verb",),
        )
        self._m_frames = self.metrics.counter(
            "repro_serve_frames_total", "Fleet worker frames handled, by type",
            labels=("type",),
        )
        self._m_points = self.metrics.counter(
            "repro_serve_points_total", "Grid points served, by source",
            labels=("source",),
        )
        self._m_sweep_cache_hits = self.metrics.counter(
            "repro_serve_sweep_cache_hits_total",
            "Jobs answered from the whole-sweep cache",
        )
        self._m_jobs = self.metrics.counter(
            "repro_serve_jobs_total", "Jobs reaching a terminal state, by outcome",
            labels=("outcome",),
        )
        self._m_reaped = self.metrics.counter(
            "repro_serve_jobs_reaped_total",
            "Running jobs cancelled after every streaming client vanished",
        )
        self._m_worker_deaths = self.metrics.counter(
            "repro_serve_worker_deaths_total",
            "Pool worker deaths detected and survived",
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ReproServer":
        """Bind, listen, and spawn the accept loop."""
        if self._listener is not None:
            return self
        self._listen()
        self._started_at = self._clock()
        log_event(server_logger, logging.INFO, "server_started",
                  endpoint=self.endpoint(), workers=self.workers,
                  cache_dir=self.cache_dir)
        return self

    def serve_one(self, request: JobRequest,
                  journal_path: Optional[Path] = None) -> Job:
        """Admit ``request`` as this daemon's one job and start serving
        — ``repro fleet serve``. Its durable sources (cache, then the
        journal at ``journal_path``, which every accepted point is
        appended to) are read before the daemon listens; when the job
        ends the daemon shuts down, answering heartbeats with ``done``
        (or ``abort`` when the job failed). Raises
        ``KeyError``/``GridError`` for an unresolvable request."""
        job, _ = self.table.admit(request)
        self._only = job
        hit = self._prepare(job, journal_path)
        self.start()
        self._spawn(self._execute, job, True, hit, name=f"repro-serve-{job.id}")
        return job

    def shutdown(self, mode: str = "graceful") -> None:
        """Stop accepting work, settle jobs, say farewell to workers,
        release the pool, wake waiters.

        ``graceful`` lets running jobs finish (queued-but-never-claimed
        jobs too — executors are spawned at admission, so nothing can be
        stranded); ``now`` cancels every non-terminal job first. Then
        heartbeats get the farewell for up to ``linger_s`` (none after
        a chaos crash). Either way the pool this server owns is closed,
        so a clean shutdown leaves no worker processes behind.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self._closer = threading.current_thread()
        if mode == "now":
            for job in self.table.active():
                job.cancel()
        for job in self.table.jobs():
            job.wait(timeout=30)
        only = self._only
        with self._changed:
            if not self.crashed:
                self._farewell = (
                    {"type": "abort", "message": only.error or f"job {only.state}"}
                    if only is not None and only.state != DONE else {"type": "done"})
                deadline = time.monotonic() + self.linger_s
                while self._sessions and time.monotonic() < deadline:
                    self._changed.wait(deadline - time.monotonic())
            abrupt = self.crashed or self._sessions
        self._close_listener()
        if abrupt:
            self._close_conns()
        self._join_threads(timeout=30)
        if self._owns_pool and self.pool is not None:
            self.pool.close()
        log_event(server_logger, logging.INFO, "server_stopped", mode=mode,
                  crashed=self.crashed)
        self._done.set()

    def close(self) -> None:
        """Idempotent teardown for tests/embedding: immediate shutdown."""
        self.shutdown(mode="now")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown completes — including the thread that
        ran it (a connection's or the one job's executor)."""
        if not self._done.wait(timeout):
            return False
        if self._closer is not threading.current_thread():
            self._closer.join(timeout)
        return True

    # -- stats ---------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            uptime = (self._clock() - self._started_at
                      if self._started_at is not None else 0.0)
            return {
                "jobs": len(self.table),
                "active_jobs": len(self.table.active()),
                "coalesced_submits": self.table.coalesced_submits,
                "points_executed": self.points_executed,
                "cache_hits": self.cache_hits,
                "workers": self.workers,
                "workers_live": len(self.fleet.live()),
                "dead_workers": self.fleet.dead,
                "uptime_s": round(uptime, 3),
                "version": protocol.PROTOCOL_VERSION,
            }

    # -- connections: the first frame picks the session -----------------------
    def handle_conn(self, stream) -> None:
        try:
            msg = self.read_frame(stream)
            if msg is not None and "type" not in msg:
                msg = protocol.parse_request(msg)
        except protocol.ProtocolError as exc:
            send_msg(stream, {"event": "error", "message": str(exc)})
            return
        if msg is None:
            return
        if "type" in msg:
            self._worker_session(stream, msg)
        else:
            # A client that goes away mid-stream only loses its
            # subscription; the job (if any) keeps running.
            self.handle_request(msg, lambda event: send_msg(stream, event))

    # -- client requests (socket-free, so unit tests can call it) -------------
    def handle_request(
        self, msg: Mapping[str, Any], send: Callable[[Mapping[str, Any]], None]
    ) -> None:
        """Serve one validated request, writing events through ``send``."""
        verb = msg["verb"]
        started = time.perf_counter()
        try:
            if verb == "ping":
                send({"event": "pong", "version": protocol.PROTOCOL_VERSION})
            elif verb == "status":
                self._handle_status(msg, send)
            elif verb == "cancel":
                ok, state = self.table.cancel(msg["job"])
                log_event(server_logger, logging.INFO, "job_cancel_requested",
                          job=msg["job"], ok=ok, state=state)
                with self._changed:
                    self._changed.notify_all()
                send({"event": "cancel", "job": msg["job"], "ok": ok, "state": state})
            elif verb == "shutdown":
                send({"event": "shutdown", "ok": True,
                      "mode": msg.get("mode", "graceful")})
                # The response is flushed before the drain starts, so the
                # client is never left waiting on a dying daemon.
                log_event(server_logger, logging.INFO, "shutdown_requested",
                          mode=msg.get("mode", "graceful"))
                self.shutdown(mode=msg.get("mode", "graceful"))
            elif verb == "metrics":
                send({"event": "metrics", "content_type": CONTENT_TYPE,
                      "text": self.render_metrics()})
            else:  # "submit": parse_request rejects every other verb
                self._handle_submit(msg, send)
        finally:
            self._m_requests.inc(verb=verb)
            self._m_latency.observe(time.perf_counter() - started, verb=verb)

    def render_metrics(self) -> str:
        """Prometheus text exposition of the daemon registry, with the
        point-in-time stats refreshed into gauges at render time."""
        # The pool's dispatch loop survives worker deaths for every job;
        # the counter catches up with its tally.
        deaths = self.pool.deaths_detected if self.pool is not None else 0
        missed = deaths - self._m_worker_deaths.value()
        if missed > 0:
            self._m_worker_deaths.inc(missed)
        return super().render_metrics()

    def _handle_status(self, msg, send) -> None:
        job_id = msg.get("job")
        if job_id is None:
            send({"event": "status", "jobs": self.table.rows(),
                  "stats": self.stats()})
            return
        job = self.table.get(job_id)
        if job is None:
            send({"event": "error", "message": f"unknown job {job_id!r}"})
            return
        row = job.snapshot()
        if job.payload is not None:
            # Terminal detail includes the payload: a detached client
            # can recover its full result from the job id alone.
            row["payload"] = job.payload
        send({"event": "status", "jobs": [row], "stats": self.stats()})

    def _handle_submit(self, msg, send) -> None:
        with self._lock:
            if self._draining:
                send({"event": "error", "message": "server is shutting down"})
                return
        request = JobRequest(
            scenario=msg["scenario"],
            overrides=msg.get("overrides") or {},
            seed=msg.get("seed"),
            reference_engine=msg.get("reference_engine"),
            reference_model=msg.get("reference_model"),
        )
        try:
            job, created = self.table.admit(request)
        except (KeyError, GridError) as exc:
            reason = exc.args[0] if exc.args else str(exc)
            log_event(server_logger, logging.WARNING, "submit_rejected",
                      scenario=msg.get("scenario"), error=str(reason))
            send({"event": "error", "message": str(reason)})
            return
        log_event(server_logger, logging.INFO, "job_admitted",
                  job=job.id, request_key=job.key, scenario=request.scenario,
                  coalesced=not created, total=job.total)
        queue = None if msg.get("detach") else job.subscribe()
        send({
            "event": "accepted",
            "job": job.id,
            "request_key": job.key,
            "coalesced": not created,
            "state": job.state,
            "done": job.done,
            "total": job.total,
        })
        if created:
            self._spawn(self._execute, job, name=f"repro-serve-{job.id}")
        if queue is None:
            return
        try:
            while True:
                event = queue.get()
                send(event)
                if event["event"] in ("result", "cancelled", "error"):
                    return
        finally:
            job.unsubscribe(queue)

    # -- fleet worker sessions: one reply per frame ---------------------------
    def _worker_session(self, stream, msg: Optional[dict[str, Any]]) -> None:
        with self._lock:
            self._sessions += 1
        try:
            while msg is not None:
                try:
                    reply = self._worker_frame(protocol.parse_worker_msg(msg))
                except protocol.ProtocolError as exc:
                    reply = {"type": "error", "message": str(exc)}
                if reply is None:
                    return  # chaos crash: die without acknowledging
                send_msg(stream, reply)
                if reply["type"] in ("done", "abort", "error"):
                    return
                msg = self.read_frame(stream)  # None: the worker went away
        finally:
            with self._changed:
                self._sessions -= 1
                self._changed.notify_all()

    def _worker_frame(self, msg: dict[str, Any]) -> Optional[dict[str, Any]]:
        mtype, name = msg["type"], msg["worker"]
        self._m_frames.inc(type=mtype)
        with self._lock:
            if self.crashed:
                return None
            if mtype == "register":
                return self._register_locked(name, msg)
            if mtype == "heartbeat":
                if self._farewell is not None:
                    return self._farewell
                if not self.fleet.beat(name):
                    return {"type": "reregister"}
                for job in self._running.values():
                    grant = job.tracker.grant(name, msg["free"])
                    if grant:
                        return protocol.lease_reply(job, grant)
                return {"type": "ok"}
            if mtype == "refuse":
                log_event(server_logger, logging.ERROR, "worker_refused",
                          worker=name, job=msg["job"], error=msg["error"])
                self.fleet.forget(name)
                self._revoke_locked(name)
                return {"type": "ok"}
            job = self._running.get(msg["job"])
            if job is None:
                # Finished, cancelled or reaped: its leases are void, and
                # a late result is acknowledged and dropped.
                late = self.table.get(msg["job"])
                if mtype == "result" and late is not None and late.tracker:
                    late.tracker.counters["duplicates"] += 1
                return {"type": "ok", "accepted": False}
            if mtype == "result":
                accepted = self._accept_locked(job, name, msg["index"],
                                               msg["values"], msg["elapsed_s"])
                return None if self.crashed else {"type": "ok", "accepted": accepted}
            log_event(server_logger, logging.WARNING, "point_failed",
                      worker=name, job=job.id, index=msg["index"],
                      error=msg["error"])
            job.tracker.report_failure(name, msg["index"], msg["error"])
            self._changed.notify_all()
            return {"type": "ok"}

    def _register_locked(self, name: str, msg: dict[str, Any]) -> dict[str, Any]:
        if msg["version"] != protocol.PROTOCOL_VERSION:
            log_event(server_logger, logging.WARNING, "worker_register_rejected",
                      worker=name, version=msg["version"])
            return {"type": "error", "message": (
                f"protocol version mismatch: daemon speaks "
                f"{protocol.PROTOCOL_VERSION}, worker {msg['version']}; run "
                "the same repro version on both sides")}
        if self.fleet.register(name):
            self._revoke_locked(name)  # a new incarnation of a known worker
        log_event(server_logger, logging.INFO, "worker_registered",
                  worker=name, capacity=msg["capacity"])
        if not self._monitoring:
            self._monitoring = True
            self._spawn(self._monitor, name="repro-serve-monitor")
        return {"type": "registered", "worker": name,
                "version": protocol.PROTOCOL_VERSION}

    def _revoke_locked(self, name: str) -> None:
        for job in self._running.values():
            job.tracker.revoke(name)
        self._changed.notify_all()

    def _monitor(self) -> None:
        """Liveness ticks, only while a remote worker is alive."""
        while True:
            time.sleep(_MONITOR_INTERVAL_S)
            with self._changed:
                for name in self.fleet.tick():
                    log_event(server_logger, logging.WARNING, "worker_dead",
                              worker=name)
                    self._revoke_locked(name)
                for job in self._running.values():
                    job.tracker.tick()
                self._changed.notify_all()
                if (not self.fleet.live() or self.crashed
                        or self._farewell is not None):
                    self._monitoring = False
                    return

    # -- job execution --------------------------------------------------------
    def _prepare(self, job: Job, journal_path: Optional[Path] = None):
        """The job's ledger (read from its durable sources) and lease
        table; returns a whole-sweep cache hit, if any."""
        ledger = SweepLedger(job.scenario, job.ctx, key=job.key,
                             cache_dir=self.cache_dir,
                             point_cache=self.point_cache, timings=self.timings)
        if journal_path is not None:
            ledger.journal_at(journal_path)
        hit = ledger.prefill()
        job.ledger = ledger
        job.tracker = tracker = SweepTracker(
            ledger.pending() if hit is None else (), ledger.total,
            config=self.config, clock=self._clock)
        for index, values in enumerate(ledger.results):
            if values is not None:
                tracker.prefill(index)
        return hit

    def _execute(self, job: Job, prepared: bool = False, hit=None) -> None:
        try:
            if not prepared:
                hit = self._prepare(job)
            self._run_job(job, hit)
        except Exception as exc:  # noqa: BLE001 - one job must not kill the daemon
            job.finish_failed(f"{type(exc).__name__}: {exc}")
            log_event(server_logger, logging.ERROR, "job_failed",
                      job=job.id, request_key=job.key,
                      error=f"{type(exc).__name__}: {exc}")
            self._m_jobs.inc(outcome="failed")
        finally:
            with self._lock:
                self._running.pop(job.id, None)
            if job.ledger is not None and job.ledger.journal is not None:
                job.ledger.journal.close()  # kept unless the job assembled
            self.table.release(job)
            if job is self._only:
                self.shutdown()

    def _run_job(self, job: Job, hit) -> None:
        if not job.mark_running():
            return  # cancelled before the executor got here
        if hit is not None:
            with self._lock:
                self.cache_hits += 1
            self._m_sweep_cache_hits.inc()
            log_event(server_logger, logging.INFO, "job_done",
                      job=job.id, request_key=job.key, cache_hit=True)
            self._finish_with_result(job, hit, cache_hit=True)
            return
        ledger, tracker = job.ledger, job.tracker
        log_event(server_logger, logging.DEBUG, "job_running",
                  job=job.id, request_key=job.key, total=job.total)
        job.note_cached(ledger.prefilled)
        with self._lock:
            self._running[job.id] = job
        error = self._drive(job)
        with self._lock:
            del self._running[job.id]  # every lease is void from here on
            if error is None and tracker.poisoned:
                error = self._poison_message(tracker)
            lessees = self.workers + len(self.fleet.live())
        if job.state in TERMINAL_STATES:
            return  # a chaos crash settled it
        if job.cancelled or error is not None:
            # Completed points are pure values — bank them so a
            # resubmit only pays for what never ran.
            ledger.bank()
            outcome = "cancelled" if job.cancelled else "failed"
            log_event(server_logger,
                      logging.INFO if job.cancelled else logging.ERROR, f"job_{outcome}",
                      job=job.id, request_key=job.key, error=error,
                      completed_points=len(ledger.fresh))
            self._m_jobs.inc(outcome=outcome)
            if job.cancelled:
                job.finish_cancelled()
            else:
                job.finish_failed(error)
            return
        result = ledger.result(
            workers=max(1, lessees),
            start_method=self.pool.start_method if self.pool is not None else None)
        with self._lock:
            self.points_executed += result.executed_points
        if result.executed_points:
            self._m_points.inc(result.executed_points, source="executed")
        if result.cached_points:
            self._m_points.inc(result.cached_points, source="point_cache")
        log_event(server_logger, logging.INFO, "job_done",
                  job=job.id, request_key=job.key, sha256=result.sha256(),
                  elapsed_s=round(result.elapsed_s, 3), **tracker.accounting())
        self._finish_with_result(job, result)

    def _drive(self, job: Job) -> Optional[str]:
        """Lease ``job``'s points until it settles. The local pool takes
        a point whenever a slot frees; only while remote leases are out
        (or no lessee exists) does the executor wait on the lease table.
        Returns an error that ends the job early, else None."""
        tracker = job.tracker
        alone_since: Optional[float] = None
        while True:
            if self.pool is not None:
                stream = self.pool.run_tasks(
                    _run_point_task, self._local_leases(job),
                    stop=lambda: self._job_stopped(job) or tracker.poisoned)
                for idx, values, dt, _snap in stream:
                    with self._lock:
                        self._accept_locked(job, _LOCAL, idx, values, dt)
            with self._changed:
                while True:
                    if (job.state in TERMINAL_STATES or tracker.finished
                            or tracker.poisoned or self._job_stopped(job)):
                        return None
                    tracker.tick()
                    if self.pool is not None and tracker.queued:
                        break  # revoked or retried points: lease them locally
                    if self.pool is None and not self.fleet.live():
                        now = self._clock()
                        alone_since = now if alone_since is None else alone_since
                        if now - alone_since > self.no_worker_timeout_s:
                            return self._dead_fleet_message(job, now - alone_since)
                    else:
                        alone_since = None
                    self._changed.wait(_POLL_S)

    def _local_leases(self, job: Job):
        """The local pool as a lessee: one point task per free slot."""
        name, points, ctx = job.scenario.name, job.ledger.points, job.ctx
        while True:
            with self._lock:
                grant = job.tracker.grant(_LOCAL, 1, expires=False)
            if not grant:
                return
            yield (name, grant[0], points[grant[0]], ctx, False)

    def _accept_locked(self, job: Job, lessee: str, index: int,
                       values: Mapping[str, float], elapsed_s: float) -> bool:
        tracker = job.tracker
        if not tracker.report_result(lessee, index, elapsed_s):
            return False
        job.ledger.accept(index, values, elapsed_s)
        params = {k: v for k, v in job.ledger.points[index].items() if k != "seed"}
        job.publish_point(index, params, values)
        crash_after = getattr(self.chaos, "crash_after_results", None)
        accepted = tracker.counters["results_accepted"]
        if crash_after is not None and accepted >= crash_after and not self.crashed:
            self.crashed = True
            job.finish_failed(
                f"chaos: coordinator crashed after {accepted} accepted "
                "results (journal preserved for resume)")
            log_event(server_logger, logging.WARNING, "chaos_crash",
                      accepted=accepted)
        if tracker.finished or self.crashed:
            self._changed.notify_all()
        return True

    def _job_stopped(self, job: Job) -> bool:
        """Is ``job`` cancelled? First reaps it when its last streaming
        client vanished more than ``abandon_timeout_s`` ago — a
        disconnect without a cancel must expire the job's leases, not
        leak capacity. Jobs with an attached subscriber (coalesced
        survivors) and detach-submitted jobs never accrue abandonment
        time."""
        timeout = self.abandon_timeout_s
        if timeout is not None and not job.cancelled:
            idle = job.abandoned_for(self._clock())
            if idle > timeout:
                log_event(server_logger, logging.WARNING, "job_reaped",
                          job=job.id, request_key=job.key,
                          idle_s=round(idle, 3), timeout_s=timeout)
                self._m_reaped.inc()
                job.cancel()
        return job.cancelled

    def _poison_message(self, tracker: SweepTracker) -> str:
        worst = sorted(tracker.poison.items())
        head = "; ".join(f"point {i}: {err}" for i, err in worst[:3])
        more = f" (+{len(worst) - 3} more)" if len(worst) > 3 else ""
        return (f"{len(worst)} point(s) quarantined after "
                f"{self.config.max_attempts} failed attempts — {head}{more}")

    def _dead_fleet_message(self, job: Job, dead_for: float) -> str:
        verb = ("every worker is dead" if self.fleet.ever_registered
                else "no worker ever registered")
        journal = ", journal preserved for resume" if job.ledger.journal else ""
        return (f"fleet is fully dead: {verb} for {dead_for:.1f}s "
                f"(> no_worker_timeout_s={self.no_worker_timeout_s}); "
                f"{len(job.tracker.completed)}/{job.total} points completed"
                f"{journal}")

    def _finish_with_result(self, job: Job, result, cache_hit: bool = False) -> None:
        job.finish_done(result, result.pretty_json(), result.sha256(),
                        cache_hit=cache_hit)
        self._m_jobs.inc(outcome="done")
