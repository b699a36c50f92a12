"""``served_mix``: a seeded request stream against a ``repro serve`` daemon.

One pass starts a fresh daemon (fresh socket path and cache directory)
and plays one request plan through it from two client connections in
this process. The clients run a closed loop in lockstep rounds: in each
round both send one submit at the same moment and each waits for its
``result`` event; the next round starts when both are answered.

The plan is drawn from the workload seed. Its requests are cheap
registered scenarios under a few seeds, so every request is one of
three kinds, fixed by the plan rather than by timing:

- miss: first time the daemon sees the request; the pool executes its
  points and the result is written to the cache;
- hit: a request answered before, read back from the whole-sweep cache;
- coalesced: both clients submit the same new request in one round; the
  second attaches to the first one's job in flight.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Optional

from expected import canonical_sha256
from layers import layer_metrics, read_dumps

CHILD = Path(__file__).resolve().parent / "child.py"

#: The registered scenarios requests are drawn from, each cheap enough
#: that the serving layers (admission, pool, cache, wire, JSON) and not
#: the simulation dominate a request.
MENU = (
    ("fig2", {}),
    ("fig6", {}),
    ("fig8", {"nodes": [2, 4, 8], "samples": 1e10}),
    ("multijob", {}),
    ("sched_compare", {"nodes": [2, 4]}),
    ("faults", {}),
)
SEEDS_PER_PLAN = 4
ROUNDS = 150
ROUND_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 120.0


def make_plan(seed: int) -> list[tuple[dict, dict]]:
    """The request pairs of one pass, one pair per round."""
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 1_000_000), SEEDS_PER_PLAN)
    fresh = [{"scenario": name, "overrides": overrides, "seed": s}
             for name, overrides in MENU for s in seeds]
    # One twin round per scenario: the slow tail of the latencies (the
    # misses and the coalesced requests) then has the same scenario mix
    # under every workload seed, which sets only simulation seeds and order.
    twins = [rng.choice(fresh[i:i + SEEDS_PER_PLAN])
             for i in range(0, len(fresh), SEEDS_PER_PLAN)]
    singles = [req for req in fresh if req not in twins]
    rng.shuffle(twins)
    rng.shuffle(singles)
    rest = (["twin"] * (len(twins) - 1) + ["fresh"] * (len(singles) - 1)
            + ["repeat"] * (ROUNDS - len(fresh)))
    rng.shuffle(rest)
    seen: list[dict] = []
    rounds = []
    for kind in ["twin", "fresh"] + rest:
        if kind == "twin":
            twin = twins.pop()
            pair = (twin, twin)
        elif kind == "fresh":
            pair = (singles.pop(), rng.choice(seen))
        else:
            pair = tuple(rng.sample(seen, 2))
        rounds.append(pair)
        for req in pair:
            if req not in seen:
                seen.append(req)
    return rounds


def distinct_requests(plan) -> list[dict]:
    out: list[dict] = []
    for pair in plan:
        for req in pair:
            if req not in out:
                out.append(req)
    return out


def request_id(req: dict) -> str:
    return json.dumps(req, sort_keys=True)


class Client(threading.Thread):
    """One client connection's side of the lockstep loop."""

    def __init__(self, address, requests: list[dict], barrier: threading.Barrier):
        super().__init__(daemon=True)
        self.address, self.requests, self.barrier = address, requests, barrier
        self.records: list[dict[str, Any]] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        from repro.serve.client import request_stream
        from repro.serve.protocol import submit_request

        try:
            for req in self.requests:
                self.barrier.wait(ROUND_TIMEOUT_S)
                msg = submit_request(req["scenario"], req["overrides"], seed=req["seed"])
                rec: dict[str, Any] = {"request": request_id(req)}
                t0 = time.perf_counter()
                for event in request_stream(self.address, msg, timeout=ROUND_TIMEOUT_S):
                    now = time.perf_counter() - t0
                    kind = event.get("event")
                    if kind == "accepted":
                        rec["admit_s"] = now
                        rec["coalesced"] = event["coalesced"]
                    elif kind == "point":
                        rec.setdefault("first_point_s", now)
                        rec["last_point_s"] = now
                    elif kind == "result":
                        rec["latency_s"] = now
                        rec["cache_hit"] = event["cache_hit"]
                        rec["sha256"] = event["sha256"]
                        rec["payload"] = event["payload"]
                        rec["executed_points"] = event["executed_points"]
                        rec["cached_points"] = event["cached_points"]
                    else:
                        rec["error"] = event.get("message", kind)
                self.records.append(rec)
        except BaseException as exc:  # noqa: BLE001 - reported by the pass
            self.error = exc
            self.barrier.abort()


def _kind(rec: dict) -> str:
    if rec.get("coalesced"):
        return "coalesced"
    return "hit" if rec.get("cache_hit") else "miss"


def _wait_ready(address, proc, timeout: float = 60.0) -> float:
    """Poll until the daemon answers ``ping``; the time that took."""
    from repro.serve.client import request_one

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited {proc.returncode} before answering")
        try:
            if request_one(address, {"verb": "ping"}, timeout=1.0).get("event") == "pong":
                return time.monotonic() - proc.spawned
        except (OSError, ValueError):
            pass
        time.sleep(0.002)
    raise RuntimeError("daemon did not answer ping in time")


def _submit_handle_s(metrics_text: str) -> float:
    """Mean submit handling time from the daemon's ``metrics`` verb."""
    def value(suffix: str) -> float:
        m = re.search(rf'^repro_serve_request_seconds_{suffix}\{{verb="submit"\}} (\S+)$',
                      metrics_text, re.M)
        return float(m.group(1)) if m else 0.0

    count = value("count")
    return value("sum") / count if count else 0.0


class ServedDaemon:
    """One ``repro serve`` daemon in a fresh directory. With
    ``layers_dir`` it runs under ``child.py serve``, which traces its
    simulation layers into that directory."""

    def __init__(self, procs, workdir: Path, name: str, layers_dir: Optional[Path] = None):
        from repro.serve.client import Address

        workdir.mkdir(parents=True)
        self.address = Address(socket_path=workdir / "s.sock")
        workers = str(min(2, os.cpu_count() or 1))
        serve = ["serve", "--socket", str(workdir / "s.sock"),
                 "--workers", workers, "--cache-dir", str(workdir / "cache"),
                 "--log-level", "warning"]
        if layers_dir is None:
            argv = ["-m", "repro", *serve]
        else:
            layers_dir.mkdir()
            argv = [str(CHILD), "serve", "--spawned", repr(time.monotonic()),
                    "--layers", str(layers_dir), "--", *serve]
        self.proc = procs.python(argv, name)
        self.setup_s = _wait_ready(self.address, self.proc)

    def request(self, verb: str) -> dict:
        from repro.serve.client import request_one

        return request_one(self.address, {"verb": verb}, timeout=30.0)

    def shutdown(self) -> None:
        self.request("shutdown")
        self.proc.wait(60.0)
        self.proc.check()


def run_pass(procs, workdir: Path, plan, trace) -> dict:
    """Play ``plan`` through a fresh daemon; per-request records plus
    what the daemon's public verbs report."""
    layers_dir = workdir / "layers" if trace else None
    daemon = ServedDaemon(procs, workdir, "serve", layers_dir)
    barrier = threading.Barrier(2)
    clients = [Client(daemon.address, [pair[i] for pair in plan], barrier) for i in (0, 1)]
    t0 = time.perf_counter()
    for c in clients:
        c.start()
    for c in clients:
        c.join(max(0.0, PASS_TIMEOUT_S - (time.perf_counter() - t0)))
        if c.is_alive():
            raise RuntimeError(f"served pass did not finish in {PASS_TIMEOUT_S:.0f}s")
    wall = time.perf_counter() - t0
    errors = [repr(c.error) for c in clients if c.error is not None]
    out: dict[str, Any] = {"wall_s": wall, "setup_s": daemon.setup_s, "errors": errors,
                           "records": [r for c in clients for r in c.records]}
    if trace:
        out["stats"] = daemon.request("status")["stats"]
        out["handle_s"] = _submit_handle_s(daemon.request("metrics")["text"])
    daemon.shutdown()
    out["rss_mb"] = daemon.proc.maxrss_mb
    if trace:
        out["layers"] = layer_metrics(read_dumps(layers_dir))
    return out


def setup_probe(procs, workdir: Path) -> float:
    """Start a daemon, wait until it answers, stop it."""
    daemon = ServedDaemon(procs, workdir, "serve-probe")
    daemon.shutdown()
    return daemon.setup_s


def check_pass(result: dict, offline: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a request fails when it got no
    result, or its payload or sha256 differs from the offline sweep."""
    failed, notes = 0, []
    for rec in result["records"]:
        want = offline[rec["request"]]
        if "latency_s" not in rec or "error" in rec:
            failed += 1
            notes.append(f"no result for {rec['request']}: {rec.get('error')}")
        elif rec["sha256"] != want or canonical_sha256(json.loads(rec["payload"])) != want:
            failed += 1
            notes.append(f"payload mismatch for {rec['request']}")
    missing = 2 * ROUNDS - len(result["records"])
    notes.extend(result["errors"])
    return 2 * ROUNDS, failed + missing, notes


def summarize(result: dict) -> dict[str, Any]:
    """Kind shares, latency phases and point counts of one pass."""
    recs = [r for r in result["records"] if "latency_s" in r]
    n = len(result["records"]) or 1
    kinds = [_kind(r) for r in recs]
    executed = [r for r in recs if r["executed_points"]]

    def med(values):
        return statistics.median(values) if values else 0.0

    return {
        "latencies": [r["latency_s"] for r in recs],
        "hit_share": kinds.count("hit") / n,
        "miss_share": kinds.count("miss") / n,
        "coalesced_share": kinds.count("coalesced") / n,
        "points_executed": sum(r["executed_points"] for r in recs),
        "points_cached": sum(r["cached_points"] for r in recs),
        "admit_s": med([r["admit_s"] for r in recs]),
        "first_point_s": med([r["first_point_s"] for r in executed if "first_point_s" in r]),
        "assemble_s": med([r["latency_s"] - r["last_point_s"]
                           for r in executed if "last_point_s" in r]),
        "fig2": next((json.loads(r["payload"]) for r in recs
                      if json.loads(r["request"])["scenario"] == "fig2"), None),
    }
