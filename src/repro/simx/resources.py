"""Communication primitives for simulation processes.

Both are *fair* (FIFO) and deterministic.  :class:`Channel` is the pipe
model of the UnixBench substrate; :class:`Store` is the matching queue
under the simulated MPI (:mod:`repro.mpi.comm`).

Usage inside a process generator::

    chan = Channel(engine, capacity=1)
    def producer():
        yield from chan.put("token")
    def consumer():
        token = yield from chan.get()
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.simx.engine import Engine, Event

__all__ = ["Channel", "Store"]


class Channel:
    """A rendezvous-free FIFO message channel with optional capacity.

    ``put`` blocks when the channel holds ``capacity`` items (capacity
    ``None`` = unbounded); ``get`` blocks when empty.  This is the building
    block for the pipe model in the UnixBench substrate and for MPI eager
    message queues.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: Optional[int] = None,
        name: str = "chan",
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Generator[Any, Any, None]:
        """Generator: enqueue ``item``, blocking while full."""
        if self._getters:
            # Direct handoff to the oldest blocked getter.
            self._getters.popleft().succeed(item)
            return
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return
        ev = self.engine.event(name=f"{self.name}.put")
        self._putters.append((ev, item))
        yield ev

    def get(self) -> Generator[Any, Any, Any]:
        """Generator: dequeue the oldest item, blocking while empty."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return item
        ev = self.engine.event(name=f"{self.name}.get")
        self._getters.append(ev)
        item = yield ev
        return item

    def _admit_putter(self) -> None:
        if self._putters:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed()


class Store:
    """An unbounded keyed mailbox with predicate matching.

    Used by the MPI matching engine: receivers wait for the first message
    satisfying a predicate (source/tag match); messages arriving earlier
    are held in an unexpected-message queue, preserving MPI's
    non-overtaking order between any (source, tag) pair.

    Items live in an insertion-ordered dict (monotonic id → item), so a
    predicate scan still sees arrival order while removal anywhere in the
    queue is O(1).  With a ``key_fn`` the store additionally maintains a
    per-key index (key → deque of ids), which :meth:`get_async` uses to
    match an *exact* key without scanning unrelated items — the MPI
    source/tag fast path.  Ids left stale in the index by predicate-path
    removals are skipped lazily.
    """

    def __init__(self, engine: Engine, name: str = "store", key_fn=None):
        self.engine = engine
        self.name = name
        self._key_fn = key_fn
        self._seq = 0
        self._items: dict[int, Any] = {}  # insertion-ordered: id -> item
        self._index: Optional[dict[Any, Deque[int]]] = (
            {} if key_fn is not None else None
        )
        self._waiters: list[tuple[Any, Event]] = []  # (predicate, event)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the *oldest* waiter whose predicate
        matches (FIFO among waiters, preserving arrival order of items).

        Waiters whose event has already triggered are skipped (and
        dropped): the MPI failure detector fails pending-receive events
        out from under the store, and a late-arriving message must not
        re-trigger them."""
        stale = False
        for i, (pred, ev) in enumerate(self._waiters):
            if ev._ok is not None:
                stale = True
                continue
            if pred(item):
                del self._waiters[i]
                ev.succeed(item)
                return
        if stale:
            self._waiters = [w for w in self._waiters if w[1]._ok is None]
        self._seq += 1
        self._items[self._seq] = item
        if self._index is not None:
            key = self._key_fn(item)
            q = self._index.get(key)
            if q is None:
                self._index[key] = q = deque()
            q.append(self._seq)

    def get_async(self, predicate, key: Any = None) -> Event:
        """Non-blocking matching: returns an event that succeeds (with the
        item) as soon as a matching item is available — immediately if one
        is already queued.  This is the primitive under MPI ``irecv``.

        ``key`` (only meaningful with a ``key_fn``) asserts that
        ``predicate`` accepts exactly the items whose ``key_fn`` equals
        ``key``; the oldest such item is then found via the index instead
        of a queue scan.  Per-key FIFO (non-overtaking) order is identical
        either way.
        """
        ev = self.engine.event(name=f"{self.name}.match")
        items = self._items
        if key is not None and self._index is not None:
            q = self._index.get(key)
            if q:
                while q:
                    item = items.pop(q.popleft(), None)  # None: stale id
                    if item is not None:
                        ev.succeed(item)
                        return ev
            self._waiters.append((predicate, ev))
            return ev
        for sid, item in items.items():
            if predicate(item):
                del items[sid]
                ev.succeed(item)
                return ev
        self._waiters.append((predicate, ev))
        return ev

    def get(self, predicate, key: Any = None) -> Generator[Any, Any, Any]:
        """Generator: retrieve the oldest item matching ``predicate``."""
        item = yield self.get_async(predicate, key)
        return item

