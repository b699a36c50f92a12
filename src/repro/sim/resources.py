"""Contention primitives: resources and stores.

These model the queuing behaviour of shared hardware: PPE cores, SPEs,
pipe channels and DataNode streams are :class:`Resource`\\ s, and DMA
in-flight request slots are a :class:`Resource` with capacity 16. The
one :class:`Store` is the bounded record pipeline between a map task's
reader and its kernel.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = [
    "Claim",
    "Release",
    "Request",
    "Resource",
    "Store",
]


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted.

    Usable as a context manager so that exceptions (including simulation
    interrupts) release the slot::

        with res.request() as req:
            yield req
            yield env.timeout(work)

    ``_withdrawn`` is the lazy-cancellation tombstone: a cancelled queued
    request is only flagged, and the resource's queue drops it at pop
    time (or during periodic compaction) instead of scanning on cancel.
    """

    __slots__ = ("resource", "_withdrawn")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._withdrawn = False
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release if granted, withdraw from the queue otherwise."""
        self.resource.release(self)


class Release(Event):
    """Immediate event confirming a release (present for API symmetry).

    Born already processed: nothing in the system waits on a release, so
    scheduling one heap event per release (as the pre-overhaul engine
    did) was pure dispatch overhead. A process that does yield a Release
    resumes immediately through the processed-event shortcut.
    """

    __slots__ = ()

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self._triggered = True
        self._processed = True


#: Compaction policy for lazily-deleted queues: compact once at least
#: ``_COMPACT_MIN`` tombstones exist and they are at least half the queue.
_COMPACT_MIN = 32


class Claim:
    """Token for a synchronous, uncontended slot claim (no events).

    Returned by :meth:`Resource.try_claim` when a slot is free and no
    live request is queued — the exact condition under which a normal
    :class:`Request` would be granted immediately. Claiming this way
    skips the grant event entirely, which collapses hot chains like
    "acquire idle channel → timed transfer → release" into a single
    scheduled event. Pass it back via :meth:`Resource.release_claim`
    (in a ``finally:`` so interrupts cannot leak the slot).
    """

    __slots__ = ()


class Resource:
    """A capacity-limited resource with FIFO granting.

    ``capacity`` slots may be held simultaneously; further requests
    queue. Cancellation of a queued request is lazy: the request is
    tombstoned (``_withdrawn``) and dropped when it reaches the head of
    the queue, with periodic compaction bounding the garbage (see
    ``docs/PERFORMANCE.md``).
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list = []  # granted Requests and synchronous Claims
        self.queue: deque[Request] = deque()
        self._stale = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of live (non-withdrawn) queued requests."""
        return len(self.queue) - self._stale

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        return Request(self)

    def try_claim(self) -> Optional[Claim]:
        """Synchronously claim a slot if one would be granted immediately.

        Returns a :class:`Claim` token (release with
        :meth:`release_claim`) or ``None`` when the caller must queue via
        :meth:`request`. Grant fairness is unchanged: the claim succeeds
        exactly when a fresh request would succeed without waiting.
        """
        if len(self.users) < self.capacity and len(self.queue) == self._stale:
            claim = Claim()
            self.users.append(claim)
            return claim
        return None

    def release_claim(self, claim: Claim) -> None:
        """Return a slot taken with :meth:`try_claim`."""
        self.users.remove(claim)
        self._grant_next()

    def release(self, request: Request) -> Release:
        """Return a slot (or withdraw a queued request)."""
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif not request._triggered and not request._withdrawn:
            # Still queued: tombstone instead of an O(n) deque scan.
            request._withdrawn = True
            self._stale = stale = self._stale + 1
            if stale >= _COMPACT_MIN and stale * 2 >= len(self.queue):
                self.queue = deque(r for r in self.queue if not r._withdrawn)
                self._stale = 0
        return Release(self.env)

    # -- internals -------------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed(self)
        else:
            self.queue.append(request)

    def _grant_next(self) -> None:
        queue = self.queue
        users = self.users
        capacity = self.capacity
        while queue and len(users) < capacity:
            nxt = queue.popleft()
            if nxt._withdrawn:
                self._stale -= 1
                continue
            users.append(nxt)
            nxt.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.count}/{self.capacity} queued={self.queued}>"


class Store:
    """A FIFO queue of Python objects, bounded by ``capacity``."""

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Any, Event]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; triggers when there is room.

        When the insert can complete synchronously (no queued waiters,
        room available — the settled-state invariant makes this
        equivalent to queueing the putter and running a settle pass) the
        returned event is born processed: a process yielding it continues
        immediately instead of taking a heap round trip. The record
        pipeline puts once per record, so this removes one event per
        record.
        """
        evt = Event(self.env)
        if not self._putters and len(self.items) < self.capacity:
            # Immediate admission (FIFO-safe: no queued putter precedes
            # us). Waiting getters are then served through the normal
            # settle pass, in the same succeed order as before.
            self.items.append(item)
            evt._value = item
            evt._triggered = True
            evt._processed = True
            if self._getters:
                self._settle()
            return evt
        self._putters.append((item, evt))
        self._settle()
        return evt

    def get(self) -> Event:
        """Remove and return the first item when available.

        Like :meth:`put`, an immediately-satisfiable get (no queued
        getters to preserve FIFO against) completes synchronously with a
        pre-processed event. A queued putter that the freed capacity can
        now admit is handled by the settle pass, exactly as it would have
        been after this getter in settle order.
        """
        evt = Event(self.env)
        if not self._getters and self.items:
            evt._value = self.items.popleft()
            evt._triggered = True
            evt._processed = True
            if self._putters:
                self._settle()
            return evt
        self._getters.append(evt)
        self._settle()
        return evt

    def _settle(self) -> None:
        items = self.items
        putters = self._putters
        getters = self._getters
        capacity = self.capacity
        progress = True
        while progress:
            progress = False
            # Admit queued putters while capacity allows.
            while putters and len(items) < capacity:
                item, evt = putters.popleft()
                items.append(item)
                evt.succeed(item)
                progress = True
            # Serve getters in FIFO order.
            while getters and items:
                getters.popleft().succeed(items.popleft())
                progress = True
