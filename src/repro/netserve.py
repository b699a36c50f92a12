"""The line-JSON listener under both daemons.

``repro serve`` and the fleet coordinator are thin listeners in front
of one core each (a job table, a sweep tracker). :class:`LineServer`
is what they share: TCP or unix binding and the accept loop, thread
and connection tracking, the bounded frame read
(:data:`repro.wire.MAX_FRAME_BYTES`), ``SHUT_RDWR`` before close (pool
workers forked while a connection was open hold a duplicate of its fd,
and only a shutdown ends the peer's stream) and the stats-to-gauges
:meth:`~LineServer.render_metrics`. A subclass defines
:meth:`~LineServer.handle_conn` — its framing rule — and ``stats()``.
"""

from __future__ import annotations

import socket
import threading
from pathlib import Path
from typing import Any, Callable, Optional

from repro import wire
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render as render_prometheus

__all__ = ["LineServer"]


class LineServer:
    """Bind, accept, read bounded frames, close; see the module doc."""

    #: Set by each subclass: ``<thread_prefix>-accept``/``-conn`` thread
    #: names, ``<metric_prefix><stats key>`` gauge names.
    thread_prefix: str
    metric_prefix: str
    #: ``(stats key, help)`` pairs :meth:`render_metrics` refreshes
    #: into ``<metric_prefix><key>`` gauges.
    gauges: tuple[tuple[str, str], ...] = ()

    def __init__(self, port: Optional[int], socket_path: Optional[Path], host: str):
        if (port is None) == (socket_path is None):
            raise ValueError("exactly one of port= or socket_path= is required")
        self.host = host
        self.port = port
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.metrics = MetricsRegistry()
        self._listener: Optional[socket.socket] = None
        self._net_lock = threading.Lock()
        self._threads: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()
        self._done = threading.Event()

    def _listen(self) -> None:
        """Bind, listen, and spawn the accept loop."""
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if self.socket_path.exists():
                self.socket_path.unlink()  # stale socket from a dead daemon
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            sock.bind(str(self.socket_path))
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            self.port = sock.getsockname()[1]
        sock.listen(128)
        self._listener = sock
        self._spawn(self._accept_loop, name=f"{self.thread_prefix}-accept")

    def endpoint(self) -> str:
        """Human-readable listen address (also what clients connect to)."""
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown completes."""
        return self._done.wait(timeout)

    def _spawn(self, target: Callable[..., None], *args, name: str) -> None:
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        thread.start()  # before tracking: shutdown never joins an unstarted thread
        with self._net_lock:
            self._threads = {t for t in self._threads if t.is_alive()}
            self._threads.add(thread)

    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: shutdown in progress
            with self._net_lock:
                self._conns.add(conn)
            self._spawn(self._serve_conn, conn, name=f"{self.thread_prefix}-conn")

    def _serve_conn(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            self.handle_conn(stream)
        except (OSError, wire.ProtocolError):
            pass  # the peer went away or broke the framing mid-stream
        finally:
            with self._net_lock:
                self._conns.discard(conn)
            _close(conn, stream)

    def handle_conn(self, stream) -> None:  # pragma: no cover - abstract
        """Serve one connection's frames (read with :meth:`read_frame`)."""
        raise NotImplementedError

    @staticmethod
    def read_frame(stream) -> Optional[dict[str, Any]]:
        """One inbound frame, read within :data:`wire.MAX_FRAME_BYTES`;
        None at EOF. Raises :class:`wire.ProtocolError` on an oversized
        or malformed frame."""
        line = wire.read_bounded(stream)
        return wire.decode(line) if line else None

    def _close_listener(self) -> None:
        """Stop accepting and unlink the unix socket file."""
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, making it fail with OSError.
            _close(listener)
        if self.socket_path is not None:
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    def _close_conns(self) -> None:
        """Force-close every open connection (their threads then end)."""
        with self._net_lock:
            conns = list(self._conns)
        for conn in conns:
            _close(conn)

    def _join_threads(self, timeout: float) -> None:
        """Join every tracked thread but the caller's, until none is left."""
        me = threading.current_thread()
        while True:
            with self._net_lock:
                live = [t for t in self._threads if t.is_alive() and t is not me]
            if not live:
                return
            for t in live:
                t.join(timeout=timeout)

    def render_metrics(self) -> str:
        """Prometheus text of :attr:`metrics`, with :attr:`gauges`
        refreshed from the subclass's ``stats()`` first."""
        stats = self.stats()
        for name, help_text in self.gauges:
            self.metrics.gauge(f"{self.metric_prefix}{name}", help_text).set(stats[name])
        return render_prometheus(self.metrics)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def _close(sock: socket.socket, stream=None) -> None:
    """Close ``stream``, shut ``sock`` down, close it — each step
    ignoring a peer that is already gone."""
    steps = [stream.close] if stream is not None else []
    steps += [lambda: sock.shutdown(socket.SHUT_RDWR), sock.close]
    for step in steps:
        try:
            step()
        except OSError:
            pass
