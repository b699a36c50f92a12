"""The daemon's wire protocol: line-delimited JSON, two sessions.

A connection's first frame selects its session. A frame with a
``verb`` starts a **client** request: one request per connection, a
stream of ``event`` lines back, closed after the terminal event. A
frame with a ``type`` starts a **worker** session (``repro fleet
worker``): one persistent connection, strictly one reply per frame.
Line framing keeps both trivially debuggable (``nc``/``socat`` work)
and safe to parse incrementally.

Client requests (``verb`` selects the operation)::

    {"verb": "submit", "scenario": "fig8", "overrides": {"nodes": [2,4]},
     "seed": 1234, "reference_engine": false, "reference_model": false,
     "detach": false}
    {"verb": "status"}                  # all jobs
    {"verb": "status", "job": "job-000001"}
    {"verb": "cancel", "job": "job-000001"}
    {"verb": "shutdown"}                # graceful: drain running jobs
    {"verb": "shutdown", "mode": "now"} # cancel running jobs first
    {"verb": "ping"}
    {"verb": "metrics"}                 # Prometheus text exposition

Response events (``event`` selects the type)::

    {"event": "accepted", "job": ..., "request_key": ..., "coalesced": bool,
     "state": ..., "done": int, "total": int}
    {"event": "point", "job": ..., "index": int, "params": {...},
     "values": {...}, "done": int, "total": int}
    {"event": "result", "job": ..., "sha256": ..., "payload": <str>,
     "executed_points": int, "cached_points": int, ...}
    {"event": "cancelled", "job": ...}
    {"event": "status", "jobs": [...], "stats": {...}}
    {"event": "cancel", "job": ..., "ok": bool, "state": ...}
    {"event": "shutdown", "ok": true}
    {"event": "pong", "version": 2}
    {"event": "metrics", "content_type": ..., "text": <Prometheus text>}
    {"event": "error", "message": ...}

The ``payload`` of a ``result`` event is the full pretty-printed
canonical JSON of the sweep — the **exact bytes** ``repro sweep`` would
write to ``results/<scenario>.json`` — so byte-identity claims can be
checked end to end with ``cmp``. Every client attached to one job
(coalesced or not) receives the same payload string.

Overrides travel as the same ``key -> [values]`` / ``key -> value``
shapes ``--grid`` parses into; the server binds them with
:meth:`Scenario.with_overrides`, which casts and validates. Engine and
model reference modes may be pinned per request (``null`` means "the
daemon's own mode"); grid points re-apply them inside the worker
processes, so one daemon serves all four mode combinations at once.

Worker frames (``type`` selects; every frame names its ``worker``)::

    {"type": "register", "worker": "w0", "capacity": 1, "version": 2}
    {"type": "heartbeat", "worker": "w0", "free": 1}
    {"type": "result", "worker": "w0", "job": ..., "index": 3,
     "values": {...}, "elapsed_s": 0.01}
    {"type": "point_failed", "worker": "w0", "job": ..., "index": 3,
     "error": "..."}
    {"type": "refuse", "worker": "w0", "job": ..., "error": "..."}

Daemon replies::

    {"type": "registered", "worker": "w0", "version": 2}
    {"type": "lease", "job": ..., "scenario": {...spec...},
     "request_key": ..., "reference": bool, "model_reference": bool,
     "points": [{"index": 3, "cfg": {...}}, ...]}
    {"type": "ok"}                     # heartbeat noted, nothing to run
    {"type": "ok", "accepted": bool}   # result acknowledged
    {"type": "done"}                   # daemon stopping: disconnect
    {"type": "reregister"}             # unknown or declared dead
    {"type": "abort", "message": ...}  # the one job failed: stop
    {"type": "error", "message": ...}  # malformed frame, version mismatch

A lease carries its job's scenario spec (grid, defaults, seed), modes
and request key, plus each point's **fully-bound cfg**, so a worker
never re-derives grid order. The worker rebuilds the scenario,
recomputes the key and, on a mismatch, sends ``refuse`` and quits: it
runs different code or calibration than the daemon, and its values
could silently diverge. A result for a job that is no longer running
(finished, cancelled, reaped) is acknowledged with ``accepted: false``
and dropped. Values travel as JSON floats; ``repr`` round-tripping
preserves them bit for bit, so results are byte-identical to serial
sweeps.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

# The line-JSON framing itself lives in repro.wire; re-exported here
# so existing imports keep working.
from repro.wire import ProtocolError, decode, encode, read_events

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "VERBS",
    "decode",
    "encode",
    "lease_reply",
    "parse_request",
    "parse_worker_msg",
    "read_events",
    "submit_request",
]

#: 2: worker frames joined the daemon's protocol (leases name their job).
PROTOCOL_VERSION = 2

VERBS = ("submit", "status", "cancel", "shutdown", "ping", "metrics")

#: Shutdown modes: graceful waits for running jobs, now cancels them.
SHUTDOWN_MODES = ("graceful", "now")


def submit_request(
    scenario: str,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    reference_engine: Optional[bool] = None,
    reference_model: Optional[bool] = None,
    detach: bool = False,
) -> dict[str, Any]:
    """Build a well-formed submit request."""
    msg: dict[str, Any] = {"verb": "submit", "scenario": scenario}
    if overrides:
        msg["overrides"] = {
            k: list(v) if isinstance(v, (list, tuple)) else v
            for k, v in overrides.items()
        }
    if seed is not None:
        msg["seed"] = int(seed)
    if reference_engine is not None:
        msg["reference_engine"] = bool(reference_engine)
    if reference_model is not None:
        msg["reference_model"] = bool(reference_model)
    if detach:
        msg["detach"] = True
    return msg


def _require_str(msg: Mapping[str, Any], field: str) -> str:
    value = msg.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{msg.get('verb')}: {field!r} must be a non-empty string")
    return value


def _optional_bool(msg: Mapping[str, Any], field: str) -> Optional[bool]:
    value = msg.get(field)
    if value is None:
        return None
    if not isinstance(value, bool):
        raise ProtocolError(f"{field!r} must be a boolean or null")
    return value


def parse_request(msg: Mapping[str, Any]) -> dict[str, Any]:
    """Validate one request frame's structure and return a normalized
    copy. Semantic errors (unknown scenario, bad grid values) are the
    server's job — this only guards the shape."""
    verb = msg.get("verb")
    if verb not in VERBS:
        raise ProtocolError(
            f"unknown verb {verb!r}; expected one of: {', '.join(VERBS)}"
        )
    out: dict[str, Any] = {"verb": verb}
    if verb == "submit":
        out["scenario"] = _require_str(msg, "scenario")
        overrides = msg.get("overrides")
        if overrides is not None and not isinstance(overrides, dict):
            raise ProtocolError("submit: 'overrides' must be an object")
        out["overrides"] = dict(overrides or {})
        seed = msg.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ProtocolError("submit: 'seed' must be an integer or null")
        out["seed"] = seed
        out["reference_engine"] = _optional_bool(msg, "reference_engine")
        out["reference_model"] = _optional_bool(msg, "reference_model")
        detach = msg.get("detach", False)
        if not isinstance(detach, bool):
            raise ProtocolError("submit: 'detach' must be a boolean")
        out["detach"] = detach
    elif verb == "cancel":
        out["job"] = _require_str(msg, "job")
    elif verb == "status":
        job = msg.get("job")
        if job is not None and (not isinstance(job, str) or not job):
            raise ProtocolError("status: 'job' must be a non-empty string or absent")
        out["job"] = job
    elif verb == "shutdown":
        mode = msg.get("mode", "graceful")
        if mode not in SHUTDOWN_MODES:
            raise ProtocolError(
                f"shutdown: mode must be one of {SHUTDOWN_MODES}, got {mode!r}"
            )
        out["mode"] = mode
    return out


def _is(kind, desc, least=None):
    """A field check: an instance of ``kind`` (never a bool), non-empty
    when a string, at least ``least`` when given."""
    def check(v) -> bool:
        return (isinstance(v, kind) and not isinstance(v, bool) and v != ""
                and (least is None or v >= least))
    return check, desc


_STR = _is(str, "a non-empty string")
_INT = _is(int, "an integer")

#: Worker frame type -> its required fields and their checks (every
#: frame also names its ``worker``).
_WORKER_FIELDS = {
    "register": {"capacity": _is(int, "an int >= 1", 1), "version": _INT},
    "heartbeat": {"free": _is(int, "an int >= 0", 0)},
    "result": {"job": _STR, "index": _INT, "values": _is(dict, "an object"),
               "elapsed_s": _is((int, float), "a number")},
    "point_failed": {"job": _STR, "index": _INT, "error": _STR},
    "refuse": {"job": _STR, "error": _STR},
}


def parse_worker_msg(msg: Mapping[str, Any]) -> dict[str, Any]:
    """Validate one worker frame's shape; semantics are the trackers'
    job. Returns a normalized copy."""
    mtype = msg.get("type")
    fields = _WORKER_FIELDS.get(mtype)
    if fields is None:
        raise ProtocolError(
            f"unknown worker frame type {mtype!r}; expected one of: "
            f"{', '.join(_WORKER_FIELDS)}")
    out: dict[str, Any] = {"type": mtype}
    for field, (check, desc) in {"worker": _STR, **fields}.items():
        if not check(msg.get(field)):
            raise ProtocolError(f"{mtype}: {field!r} must be {desc}")
        out[field] = msg[field]
    return out


def lease_reply(job, indices) -> dict[str, Any]:
    """One lease on ``job``'s points: its scenario spec, modes and
    request key (the worker rebuilds and checks them) and each point's
    fully-bound cfg."""
    sc = job.scenario
    return {
        "type": "lease",
        "job": job.id,
        "scenario": {"name": sc.name, "grid": {k: list(v) for k, v in sc.grid.items()},
                     "defaults": dict(sc.defaults), "seed": sc.seed},
        "request_key": job.key,
        "reference": job.ctx.engine_reference,
        "model_reference": job.ctx.model_reference,
        "points": [{"index": i, "cfg": dict(job.ledger.points[i])} for i in indices],
    }
