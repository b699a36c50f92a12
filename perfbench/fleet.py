"""``fleet_sweep``: one fig8 sweep across a ``repro fleet`` of two workers.

One pass starts a coordinator on a fresh unix socket, with a journal,
waits until the socket accepts a connection (set-up), then starts two
workers and tails the coordinator's journal: each accepted point is one
fsynced journal line carrying the worker-measured ``elapsed_s``. That
gives the time of the first and the last accepted point from outside the
coordinator. The coordinator's closing summary line reports how many
points were re-dispatched, delivered twice or won by a speculative
replica, and ``--out`` holds the merged result the pass is checked with.
"""

from __future__ import annotations

import json
import re
import socket
import time
from pathlib import Path
from typing import Any

#: Node counts of the swept fig8 grid, at the scenario's 1e11 samples:
#: every count from 2 to 72, so the points outweigh the two workers'
#: start-up (about 0.75 s of a 16-point pass went to it, and process
#: start-up is the noisiest thing a shared host times).
NODES = tuple(range(2, 73))
WORKERS = 2
PASS_TIMEOUT_S = 120.0

_SUMMARY = re.compile(
    r"^fleet fig8: (?P<points>\d+) points \((?P<accepted>\d+) from workers, "
    r"(?P<prefilled>\d+) prefilled\), (?P<redispatched>\d+) re-dispatched, "
    r"(?P<duplicates>\d+) duplicates dropped, (?P<speculative>\d+) speculative "
    r"win\(s\), sha256 (?P<sha>[0-9a-f]+)$", re.M)


def request(seed: int) -> dict:
    """The sweep one pass runs, as an offline-checkable request."""
    return {"scenario": "fig8", "overrides": {"nodes": list(NODES)}, "seed": seed}


def _wait_listening(path: Path, proc, timeout: float = 60.0) -> float:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"coordinator exited {proc.returncode} before listening")
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            try:
                sock.connect(str(path))
                return time.monotonic() - proc.spawned
            except OSError:
                pass
        time.sleep(0.002)
    raise RuntimeError("coordinator did not listen in time")


def _coordinator(procs, workdir: Path, seed: int, name: str):
    workdir.mkdir(parents=True)
    sock = workdir / "f.sock"
    proc = procs.python(
        ["-m", "repro", "fleet", "serve", "fig8",
         "--grid", "nodes=" + ",".join(map(str, NODES)), "--seed", str(seed),
         "--socket", str(sock), "--journal", str(workdir / "journal.jsonl"),
         "--out", str(workdir / "out"), "--log-level", "warning"], name)
    return proc, sock, _wait_listening(sock, proc)


def setup_probe(procs, workdir: Path, seed: int) -> float:
    """Start a coordinator, wait until it listens, stop it."""
    coord, _, setup_s = _coordinator(procs, workdir, seed, "coordinator-probe")
    coord.stop()
    return setup_s


def run_pass(procs, workdir: Path, seed: int) -> dict[str, Any]:
    coord, sock, setup_s = _coordinator(procs, workdir, seed, "coordinator")
    ready = time.monotonic()
    workers = [procs.python(["-m", "repro", "fleet", "worker", "--socket", str(sock),
                             "--log-level", "warning"], f"worker{i}")
               for i in range(WORKERS)]
    accepted: list[tuple[float, float]] = []  # (seen at, elapsed_s)
    deadline = ready + PASS_TIMEOUT_S
    with open(workdir / "journal.jsonl", "rb") as journal:
        pending = b""
        while True:
            exited = coord.poll() is not None
            pending += journal.read()
            *lines, pending = pending.split(b"\n")
            now = time.monotonic()
            for line in lines:
                row = json.loads(line)
                if "index" in row:
                    accepted.append((now - ready, row.get("elapsed_s", 0.0)))
            if exited:
                break
            if now > deadline:
                raise RuntimeError("fleet pass timed out")
            time.sleep(0.002)
    exited_at = coord.ended - ready
    coord.wait(10.0)
    for w in workers:
        w.wait(60.0)
    for proc in (coord, *workers):
        proc.check()
    summary = _SUMMARY.search(coord.stdout())
    if summary is None or not accepted:
        raise RuntimeError("coordinator printed no summary:\n" + coord.stdout()[-2000:])
    counts = {k: int(v) for k, v in summary.groupdict().items() if k != "sha"}
    merged = json.loads((workdir / "out" / "fig8.json").read_text())
    last = accepted[-1][0]
    return {
        "wall_s": last,
        "setup_s": setup_s,
        "rss_mb": max(p.maxrss_mb for p in (coord, *workers)),
        "merged": merged,
        "summary_sha": summary["sha"],
        "first_result_s": accepted[0][0],
        "tail_s": exited_at - last,
        "point_s": sum(e for _, e in accepted),
        **counts,
    }
