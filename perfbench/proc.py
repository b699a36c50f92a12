"""Child-process plumbing: spawn, reap with peak RSS, never leak.

Every process the benchmark starts goes through :class:`Proc`. Each one
leads its own session (process group), so pool workers a daemon forks
are reachable too: :meth:`Proc.stop` kills the whole group when the
leader did not exit by itself, and :meth:`Proc.wait` does not return
before every member of the group is gone. The leader is reaped with
``os.wait4``, whose resource usage covers the leader and every child it
reaped itself; that is how a daemon's pool workers count in the
workload's peak RSS.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

#: Where the repo's package lives, relative to the checkout root.
SRC = Path("src")

#: Engine/model/telemetry switches that would change what is measured.
#: The benchmark refuses to run while any of them is set.
MODE_ENV = ("REPRO_SIM_REFERENCE", "REPRO_MODEL_REFERENCE", "REPRO_OBS")


class ProcError(RuntimeError):
    """A child process failed, timed out or could not be reaped."""


def child_env() -> dict[str, str]:
    """The environment every child gets: the caller's, minus the mode
    switches, with the package on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k not in MODE_ENV}
    env["PYTHONPATH"] = str(SRC.resolve())
    return env


class Proc:
    """One spawned child, its own process-group leader.

    Output goes to files under ``logdir`` (never pipes, so a chatty
    child cannot block on a full pipe while we wait for it).
    """

    def __init__(self, argv: Sequence[str], logdir: Path, name: str):
        logdir.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.stdout_path = logdir / f"{name}.out"
        self.stderr_path = logdir / f"{name}.err"
        self.spawned = time.monotonic()
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self._popen = subprocess.Popen(
                list(argv), stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=child_env(), start_new_session=True,
            )
        self.pid = self._popen.pid
        self.returncode: Optional[int] = None
        self.maxrss_mb = 0.0
        self.ended: Optional[float] = None

    def poll(self) -> Optional[int]:
        """Reap the leader if it has exited; its return code or None."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
        return self.returncode

    def _reaped(self, status: int, usage) -> None:
        self.ended = time.monotonic()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self._popen.returncode = self.returncode  # keep Popen from re-reaping

    def wait(self, timeout: float) -> int:
        """Wait for the leader to exit by itself, at most ``timeout``
        seconds; on timeout kill the group and raise. Either way every
        member of the group has ended when this returns or raises."""
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() >= deadline:
                self.stop()
                raise ProcError(f"{self.name} did not exit within {timeout:.0f}s")
            time.sleep(0.005)
        self._drain_group(deadline)
        return self.returncode

    def stop(self) -> None:
        """Kill the leader (unless already reaped) and everything left
        in its group, then wait until all of them are gone."""
        self._signal_group(signal.SIGKILL)
        if self.returncode is None:
            _, status, usage = os.wait4(self.pid, 0)
            self._reaped(status, usage)
        self._drain_group(time.monotonic() + 10.0)

    def _signal_group(self, sig: int) -> bool:
        try:
            os.killpg(self.pid, sig)
            return True
        except (ProcessLookupError, PermissionError):
            return False

    def _group_alive(self) -> bool:
        """True while a non-zombie member of the group exists. Orphans
        are reparented and reaped elsewhere, perhaps never (a container's
        first process may not reap), so zombies count as ended."""
        proc_root = Path("/proc")
        if not proc_root.is_dir():
            return self._signal_group(0)
        for stat in proc_root.glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # exited while we looked
            if int(fields[2]) == self.pid and fields[0] != "Z":
                return True
        return False

    def _drain_group(self, deadline: float) -> None:
        """Wait until no member of the group is left running; kill the
        stragglers once ``deadline`` passes."""
        while self._group_alive():
            if time.monotonic() >= deadline:
                self._signal_group(signal.SIGKILL)
                deadline = time.monotonic() + 10.0
            time.sleep(0.005)

    def stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")

    def check(self) -> None:
        """Raise unless the child exited 0."""
        if self.returncode != 0:
            tail = self.stderr()[-2000:]
            raise ProcError(f"{self.name} exited {self.returncode}:\n{tail}")


class ProcSet:
    """Every child of one run; ``close`` stops whatever is still alive,
    so success, failure and timeout paths all end with no process left."""

    def __init__(self, logdir: Path):
        self.logdir = logdir
        self._procs: list[Proc] = []
        self._count = 0

    def python(self, args: Sequence[str], name: str) -> Proc:
        self._count += 1
        proc = Proc([sys.executable, *args], self.logdir, f"{self._count:03d}-{name}")
        self._procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self._procs:
            proc.stop()

    def __enter__(self) -> "ProcSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
