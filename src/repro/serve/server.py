"""The long-running simulation daemon behind ``repro serve``.

A thin listener (:class:`~repro.netserve.LineServer`, one request per
connection) in front of a job table; one executor thread per admitted
job fans its grid points onto the shared persistent
:class:`~repro.experiments.pool.SweepPool` and publishes per-point
progress to every subscribed client. Correctness properties, in order
of importance:

- **Byte identity.** A job is a :class:`~repro.experiments.driver.SweepLedger`
  — the cache, point-cache and assembly policy of ``repro sweep
  --cache`` — fed by the same worker-side task function, so a served
  payload is byte-identical to ``repro sweep`` output by construction,
  at any concurrency, in any engine/model mode.
- **Coalescing.** Admission goes through the job table's in-flight
  registry: concurrent submits with one canonical request key execute
  the grid once; every attached client receives the same payload.
- **Isolation.** Grid points always run in pool worker processes, and
  each task re-applies its job's engine/model modes around the point,
  so concurrent jobs in different modes never perturb each other.
- **Prompt cancellation.** The pool's one dispatch loop
  (:meth:`~repro.experiments.pool.SweepPool.run_tasks`) runs with the
  job's stop check, so at most ``workers`` tasks are in flight and a
  cancelled job stops consuming the pool after the current wave.

Cancellation and client disconnects are independent: a client that
goes away mid-stream just loses its subscription — the job keeps
running for the other attached clients (and for the cache). Only an
explicit ``cancel`` verb, or the abandoned-job reaper, ends a job.
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
from repro.netserve import LineServer
from repro.obs.prometheus import CONTENT_TYPE
from repro.serve import protocol
from repro.serve.jobs import Job, JobRequest, JobTable
from repro.serve.logs import log_event, server_logger
from repro.wire import send_msg

__all__ = ["ReproServer"]


class ReproServer(LineServer):
    """The daemon: a listener, a job table, and a worker pool.

    Parameters
    ----------
    port: TCP port to listen on (0 = OS-assigned); exclusive with
        ``socket_path``.
    socket_path: unix socket path to listen on.
    host: TCP bind address (default loopback; this protocol has no
        authentication, so binding wider is an explicit choice).
    workers: pool worker processes serving grid points.
    cache_dir: optional cache directory; when set, jobs go through the
        whole-sweep and per-point caches (and record point timings)
        exactly as ``repro sweep --cache`` does.
    pool: an existing :class:`SweepPool` to serve on (left open on
        shutdown unless ``owns_pool=True``). Default: a dedicated pool
        the server closes on shutdown.
    abandon_timeout_s: how long a running job may outlive its last
        streaming client before it is reaped (cancelled) — the lease a
        mid-stream disconnect leaves behind expires instead of leaking
        pool capacity. A job keeps running while *any* coalesced
        client is still attached, and detach-submitted jobs are never
        reaped (their clients poll by job id). None disables reaping.
    clock: time source for the job table (tests inject a fake one).
    """

    thread_prefix = "repro-serve"
    metric_prefix = "repro_serve_"
    gauges = (
        ("jobs", "Jobs admitted since start"),
        ("active_jobs", "Jobs currently queued or running"),
        ("coalesced_submits", "Submits coalesced onto an in-flight job"),
        ("workers", "Pool worker processes"),
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
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(port, socket_path, host)
        if owns_pool is None:
            owns_pool = pool is None
        self.pool = pool = pool if pool is not None else SweepPool(workers)
        self.workers = pool.workers
        self._owns_pool = owns_pool
        self.abandon_timeout_s = abandon_timeout_s
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.point_cache = PointCache(self.cache_dir) if self.cache_dir else None
        self.timings = TimingStore(self.cache_dir) if self.cache_dir else None
        self.table = JobTable(clock=clock)
        self._clock = clock
        self._lock = threading.Lock()
        self._draining = False
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

    def shutdown(self, mode: str = "graceful") -> None:
        """Stop accepting, settle jobs, release the pool, wake waiters.

        ``graceful`` lets running jobs finish (queued-but-never-claimed
        jobs too — executors are spawned at admission, so nothing can be
        stranded); ``now`` cancels every non-terminal job first. Either
        way the pool this server owns is closed, so a clean shutdown
        leaves no worker processes behind.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self._close_listener()
        if mode == "now":
            for job in self.table.active():
                job.cancel()
        self._join_threads(timeout=30)
        if self._owns_pool:
            self.pool.close()
        log_event(server_logger, logging.INFO, "server_stopped", mode=mode)
        self._done.set()

    def close(self) -> None:
        """Idempotent teardown for tests/embedding: immediate shutdown."""
        self.shutdown(mode="now")

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
                "uptime_s": round(uptime, 3),
                "version": protocol.PROTOCOL_VERSION,
            }

    # -- connection handling: one request per connection ------------------
    def handle_conn(self, stream) -> None:
        try:
            msg = self.read_frame(stream)
            if msg is None:
                return
            msg = protocol.parse_request(msg)
        except protocol.ProtocolError as exc:
            send_msg(stream, {"event": "error", "message": str(exc)})
            return
        # A client that goes away mid-stream only loses its
        # subscription; the job (if any) keeps running.
        self.handle_request(msg, lambda event: send_msg(stream, event))

    # -- request dispatch (socket-free, so unit tests can call it) -----------
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
        missed = self.pool.deaths_detected - self._m_worker_deaths.value()
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

    # -- job execution --------------------------------------------------------
    def _execute(self, job: Job) -> None:
        try:
            self._run_job(job)
        except Exception as exc:  # noqa: BLE001 - one job must not kill the daemon
            job.finish_failed(f"{type(exc).__name__}: {exc}")
            log_event(server_logger, logging.ERROR, "job_failed",
                      job=job.id, request_key=job.key,
                      error=f"{type(exc).__name__}: {exc}")
            self._m_jobs.inc(outcome="failed")
        finally:
            self.table.release(job)

    def _run_job(self, job: Job) -> None:
        sc = job.scenario
        ledger = SweepLedger(sc, job.ctx, key=job.key, cache_dir=self.cache_dir,
                             point_cache=self.point_cache, timings=self.timings)
        cached = ledger.prefill()
        if not job.mark_running():
            return  # cancelled before the executor got here
        if cached is not None:
            with self._lock:
                self.cache_hits += 1
            self._m_sweep_cache_hits.inc()
            log_event(server_logger, logging.INFO, "job_done",
                      job=job.id, request_key=job.key, cache_hit=True)
            self._finish_with_result(job, cached, cache_hit=True)
            return
        log_event(server_logger, logging.DEBUG, "job_running",
                  job=job.id, request_key=job.key, total=job.total)
        job.note_cached(ledger.prefilled)

        tasks = ledger.tasks()
        stream = self.pool.run_tasks(_run_point_task, tasks,
                                     stop=lambda: self._job_stopped(job))
        for idx, values, dt, _snap in stream:
            ledger.accept(idx, values, dt)
            params = {k: v for k, v in ledger.points[idx].items() if k != "seed"}
            job.publish_point(idx, params, values)
        if tasks and job.cancelled:
            # Completed points are pure values — bank them so a
            # resubmit only pays for what never ran.
            ledger.bank()
            log_event(server_logger, logging.INFO, "job_cancelled",
                      job=job.id, request_key=job.key,
                      completed_points=len(ledger.fresh))
            self._m_jobs.inc(outcome="cancelled")
            job.finish_cancelled()
            return

        result = ledger.result(workers=self.pool.workers,
                               start_method=self.pool.start_method)
        with self._lock:
            self.points_executed += result.executed_points
        if result.executed_points:
            self._m_points.inc(result.executed_points, source="executed")
        if result.cached_points:
            self._m_points.inc(result.cached_points, source="point_cache")
        log_event(server_logger, logging.INFO, "job_done",
                  job=job.id, request_key=job.key, sha256=result.sha256(),
                  executed_points=result.executed_points,
                  cached_points=result.cached_points,
                  elapsed_s=round(result.elapsed_s, 3))
        self._finish_with_result(job, result)

    def _job_stopped(self, job: Job) -> bool:
        """The dispatch loop's stop check: is ``job`` cancelled? First
        reaps it when its last streaming client vanished more than
        ``abandon_timeout_s`` ago — a disconnect without a cancel must
        expire the lease, not leak pool capacity. Jobs with an attached
        subscriber (coalesced survivors) and detach-submitted jobs
        never accrue abandonment time."""
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

    def _finish_with_result(self, job: Job, result, cache_hit: bool = False) -> None:
        job.finish_done(result, result.pretty_json(), result.sha256(),
                        cache_hit=cache_hit)
        self._m_jobs.inc(outcome="done")
