"""The discrete-event engine: clock, event heap, and generator processes.

Time model
----------
Simulated time is an ``int`` count of nanoseconds from simulation start.
Using integers removes floating-point drift: two events scheduled for the
same instant compare equal, and replays are exact.

Process model
-------------
A *process* wraps a generator.  The generator communicates with the engine
by yielding one of:

``Delay(ns)`` or a plain ``int``
    Suspend for that many nanoseconds of simulated time.

:class:`Event`
    Suspend until the event succeeds (resumes with the event's value) or
    fails (the stored exception is thrown into the generator).

:class:`Process`
    Suspend until that process terminates (join).  Resumes with the
    process's return value; re-raises the process's exception.

:class:`AllOf` / :class:`AnyOf`
    Composite waits over several events/processes.

Gates
-----
A process may be constructed with a *gate* — any object with a method
``deliver(fn: Callable[..., None], args: tuple = ()) -> None`` that
eventually calls ``fn(*args)``.  Every resumption of the process is
routed through the gate.  This is how System Management Mode is
modeled: a node acts as the gate for every task process it hosts, and
while the node's cores are frozen in SMM the gate queues wake-ups instead
of delivering them (see :class:`repro.machine.node.Node`).  Hardware-level
processes (the SMM controller itself, the SMI source, NIC transfers) are
created without a gate and are therefore unaffected by the freeze — just
like real hardware below the host software stack.

Hot-path representation (DESIGN.md §3 "Performance")
----------------------------------------------------
Heap entries are plain lists ``[time, seq, fn, args, daemon, cancelled]``
rather than objects: ``heapq`` then compares them with C-level list
comparison (``seq`` is unique, so comparison never reaches ``fn``), and
no closure is allocated per scheduled callback.  Cancellation is *lazy*:
``cancel`` flips the tombstone flag in place and the run loop discards
the entry when it surfaces, so cancelling never touches the heap.  The
public :meth:`Engine.schedule`/:meth:`Engine.schedule_at` return nothing;
a caller that must cancel (processes, rate executors) keeps the raw entry
from :meth:`Engine._post` and tombstones it with
:meth:`Engine._cancel_entry`.

Settle passes
-------------
A model that re-derives state after every mutation (a node's CPU rates)
can instead owe one pass per instant: :meth:`Engine.defer_settle`
queues it, and the run loops drain the queue, in the order the passes
were deferred, once no event is left at the current instant and before
the clock moves.  A pass may post an event at the current instant; the
loop runs it before the clock moves too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.simx.errors import ProcessKilled, SimulationError

__all__ = ["Engine", "Delay", "Event", "AllOf", "AnyOf", "Process"]

# Heap-entry field indices (see module docstring).
_TIME, _SEQ, _FN, _ARGS, _DAEMON, _CANCELLED = range(6)

_heappush = heapq.heappush
_heappop = heapq.heappop


@dataclass(frozen=True)
class Delay:
    """Yieldable command: suspend the process for ``ns`` nanoseconds."""

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise ValueError(f"negative delay: {self.ns}")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*; exactly one of :meth:`succeed` or
    :meth:`fail` may be called, after which waiters are resumed.  Waiters
    that register after triggering are resumed immediately (on delivery
    through their gate).
    """

    __slots__ = ("engine", "_ok", "_value", "_exc", "_callbacks", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Event"], None]] = []

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value (or the exception if the event failed)."""
        if self._ok is None:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value if self._ok else self._exc

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._ok = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            if len(callbacks) == 1:
                # Single-waiter fast path: the overwhelmingly common case
                # (a process joining a delay/segment/message completion).
                cb = callbacks[0]
                callbacks.clear()
                cb(self)
            else:
                self._callbacks = []
                for cb in callbacks:
                    cb(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._exc = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb(event)``; invoked immediately if already triggered."""
        if self._ok is not None:
            cb(self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<Event {self.name!r} {state}>"


class AllOf:
    """Composite wait: resume when *all* of the given waitables trigger.

    Resumes with a list of values in input order.  If any waitable fails,
    the first failure is raised into the waiting process.
    """

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = list(waitables)


class AnyOf:
    """Composite wait: resume when *any one* of the given waitables triggers.

    Resumes with ``(index, value)`` of the first trigger.  A failure of the
    first-triggering waitable is raised.
    """

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = list(waitables)
        if not self.waitables:
            raise ValueError("AnyOf requires at least one waitable")


class Process:
    """A running generator on the engine.  See module docstring for the
    yield protocol.  A process is itself waitable (join)."""

    __slots__ = (
        "engine",
        "name",
        "gen",
        "gate",
        "daemon",
        "done_event",
        "_alive",
        "_pending_handle",
    )

    def __init__(
        self,
        engine: "Engine",
        gen: Generator[Any, Any, Any],
        name: str = "proc",
        gate: Any = None,
        daemon: bool = False,
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"process body must be a generator (got {type(gen).__name__}); "
                "did you forget `yield` in the function?"
            )
        self.engine = engine
        self.name = name
        self.gen = gen
        self.gate = gate
        self.daemon = daemon
        self.done_event = Event(engine, name=f"{name}.done")
        self._alive = True
        #: One of: a raw heap entry (delay wait), a ``_Waiter`` (event
        #: wait), or None.  Identity doubles as the staleness token for
        #: event callbacks.
        self._pending_handle: Any = None
        # First step happens at the current instant, in scheduling order.
        engine._post(0, self._step, (None, None), daemon)

    # -- public -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator; raises if not finished or failed."""
        ev = self.done_event
        if ev.triggered and not ev.ok:
            raise ev.exception
        return ev.value

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it."""
        if not self._alive:
            return
        self._cancel_pending()
        self.engine._post(0, self._step, (None, ProcessKilled(self.name)), False)

    def abort(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at the current instant, bypassing
        its gate.

        :meth:`kill` ends a process *cleanly* (its ``done_event`` succeeds);
        ``abort`` is the error path — unless the generator catches ``exc``,
        the ``done_event`` fails with it.  Bypassing the gate matters for
        fault injection: when a node fails, the gate *is* the failed node,
        which no longer delivers wake-ups.
        """
        if not self._alive:
            return
        self._cancel_pending()
        self.engine._post(0, self._step, (None, exc), False)

    # -- engine internals ---------------------------------------------------
    def _cancel_pending(self) -> None:
        h = self._pending_handle
        if h is not None:
            if type(h) is list:  # raw heap entry (delay wait)
                self.engine._cancel_entry(h)
            self._pending_handle = None

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        """Resume through the gate (if any).

        Resumption is always *scheduled* (never synchronous): an event may
        trigger deep inside a rate-executor sync or an SMM transition,
        and running user generator code re-entrantly from there would let
        a task mutate CPU state mid-recomputation.  Scheduling at +0 ns
        keeps simulated time identical while serializing the control flow.
        """
        self._pending_handle = None
        if self.gate is None:
            self.engine._post(0, self._step, (value, exc), self.daemon)
        else:
            self.gate.deliver(self._step, (value, exc))

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self._alive:
            return
        try:
            if exc is not None:
                cmd = self.gen.throw(exc)
            else:
                cmd = self.gen.send(value)
        except StopIteration as stop:
            self._finish(ok=True, value=stop.value)
            return
        except ProcessKilled as pk:
            self._finish(ok=True, value=None, killed=pk)
            return
        except BaseException as err:  # noqa: BLE001 - propagate into joiners
            self._finish(ok=False, exc=err)
            return
        self._wait_on(cmd)

    def _finish(
        self,
        ok: bool,
        value: Any = None,
        exc: Optional[BaseException] = None,
        killed: Optional[ProcessKilled] = None,
    ) -> None:
        self._alive = False
        self.gen.close()
        if ok:
            self.done_event.succeed(value)
        else:
            assert exc is not None
            if not self.done_event._callbacks:
                # No joiner: surface the error at the engine level rather
                # than dropping it silently.
                self.engine._record_orphan_failure(self, exc)
            self.done_event.fail(exc)

    def _wait_on(self, cmd: Any) -> None:
        cls = cmd.__class__
        if cls is Event:
            self._wait_event(cmd)
        elif cls is Delay:
            self._pending_handle = self.engine._post(
                cmd.ns, self._resume, (None, None), self.daemon
            )
        elif cls is int:
            if cmd < 0:
                raise ValueError(f"negative delay: {cmd}")
            self._pending_handle = self.engine._post(
                cmd, self._resume, (None, None), self.daemon
            )
        elif isinstance(cmd, Event):
            self._wait_event(cmd)
        elif isinstance(cmd, Process):
            self._wait_event(cmd.done_event)
        elif isinstance(cmd, AllOf):
            self._wait_all(cmd)
        elif isinstance(cmd, AnyOf):
            self._wait_any(cmd)
        elif isinstance(cmd, int):  # bool or int subclass
            self._pending_handle = self.engine._post(
                int(cmd), self._resume, (None, None), self.daemon
            )
        elif isinstance(cmd, Delay):
            self._pending_handle = self.engine._post(
                cmd.ns, self._resume, (None, None), self.daemon
            )
        else:
            self._resume(
                None,
                TypeError(f"process {self.name!r} yielded unsupported {cmd!r}"),
            )

    def _wait_event(self, ev: Event) -> None:
        waiter = _EventWaiter(self)
        self._pending_handle = waiter
        ev.add_callback(waiter)

    def _wait_all(self, allof: AllOf) -> None:
        events = [_as_event(w) for w in allof.waitables]
        if not events:
            self._pending_handle = self.engine._post(
                0, self._resume, ([], None), False)
            return
        waiter = _AllWaiter(self, events)
        self._pending_handle = waiter
        for e in events:
            e.add_callback(waiter)

    def _wait_any(self, anyof: AnyOf) -> None:
        events = [_as_event(w) for w in anyof.waitables]
        waiter = _AnyWaiter(self, events)
        self._pending_handle = waiter
        for e in events:
            e.add_callback(waiter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"


class _EventWaiter:
    """Registered as an event callback for a single-event wait.

    Staleness is checked by identity: a new wait installs a new waiter
    object in ``proc._pending_handle``, so callbacks from a superseded
    wait (the process was aborted or killed meanwhile) fall through.
    One object serves as both the pending handle and the callback, so a
    wait costs one allocation instead of a handle + token + closure.
    """

    __slots__ = ("proc",)

    def __init__(self, proc: Process):
        self.proc = proc

    def cancel(self) -> None:  # pragma: no cover - identity check suffices
        pass

    def __call__(self, event: Event) -> None:
        proc = self.proc
        if proc._pending_handle is not self:
            return  # stale registration (process was aborted/killed)
        if event._ok:
            proc._resume(event._value, None)
        else:
            proc._resume(None, event._exc)


class _AllWaiter:
    """Shared callback for an :class:`AllOf` wait."""

    __slots__ = ("proc", "events", "remaining")

    def __init__(self, proc: Process, events: List[Event]):
        self.proc = proc
        self.events = events
        self.remaining = len(events)

    def cancel(self) -> None:  # pragma: no cover - identity check suffices
        pass

    def __call__(self, event: Event) -> None:
        proc = self.proc
        if proc._pending_handle is not self:
            return
        if not event._ok:
            proc._resume(None, event._exc)
            return
        self.remaining -= 1
        if self.remaining == 0:
            proc._resume([e._value for e in self.events], None)


class _AnyWaiter:
    """Shared callback for an :class:`AnyOf` wait."""

    __slots__ = ("proc", "events")

    def __init__(self, proc: Process, events: List[Event]):
        self.proc = proc
        self.events = events

    def cancel(self) -> None:  # pragma: no cover - identity check suffices
        pass

    def __call__(self, event: Event) -> None:
        proc = self.proc
        if proc._pending_handle is not self:
            return
        if event._ok:
            # Event identity (no __eq__ override) → index of first
            # registration, matching the legacy per-index closures.
            proc._resume((self.events.index(event), event._value), None)
        else:
            proc._resume(None, event._exc)


def _as_event(w: Any) -> Event:
    if isinstance(w, Event):
        return w
    if isinstance(w, Process):
        return w.done_event
    raise TypeError(f"cannot wait on {w!r}")


class Engine:
    """The event loop: an event heap and the simulated clock.

    Typical use::

        eng = Engine()
        def body():
            yield Delay(1_000)
            return 42
        p = eng.process(body(), name="answer")
        eng.run()
        assert p.result == 42
    """

    def __init__(self, metrics=None) -> None:
        self._heap: list[list] = []
        self._now = 0
        self._seq = 0
        self._foreground = 0  # pending non-daemon callbacks
        self._settles: list[Callable[[], None]] = []  # owed this instant
        self._orphan_failures: list[tuple[str, BaseException]] = []
        # Observability: instruments are cached here (or None) so the
        # disabled-mode cost on the scheduling/dispatch hot paths is a
        # single attribute check (see repro.obs.metrics).
        self.metrics = metrics
        if metrics is not None:
            self._m_scheduled = metrics.counter(
                "engine.events.scheduled", "event-heap pushes")
            self._m_fired = metrics.counter(
                "engine.events.fired", "callbacks dispatched")
            self._m_heap = metrics.gauge(
                "engine.heap.depth", "event-heap size after each push")
        else:
            self._m_scheduled = None
            self._m_fired = None
            self._m_heap = None

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------
    def _post(self, delay_ns: int, fn: Callable[..., None], args: tuple,
              daemon: bool) -> list:
        """Internal fast-path schedule: returns the raw heap entry.
        Cancel with :meth:`_cancel_entry`."""
        t_ns = self._now + delay_ns
        self._seq = seq = self._seq + 1
        entry = [t_ns, seq, fn, args, daemon, False]
        if not daemon:
            self._foreground += 1
        _heappush(self._heap, entry)
        if self._m_scheduled is not None:
            self._m_scheduled.value += 1
            self._m_heap.set(len(self._heap))
        return entry

    def _cancel_entry(self, entry: list) -> None:
        """Tombstone a heap entry (lazy cancellation).  Idempotent."""
        if not entry[_CANCELLED]:
            entry[_CANCELLED] = True
            if not entry[_DAEMON]:
                self._foreground -= 1

    def schedule(self, delay_ns: int, fn: Callable[..., None], *args: Any,
                 daemon: bool = False) -> None:
        """Schedule ``fn(*args)`` after ``delay_ns`` nanoseconds.

        ``daemon=True`` events do not keep :meth:`run` alive on their own:
        like daemon threads, they serve perpetual background activities
        (the SMI trigger timer, the kernel's periodic load balancer).
        """
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule into the past: {self._now + delay_ns} "
                f"< now={self._now}"
            )
        self._post(delay_ns, fn, args, daemon)

    def schedule_at(self, t_ns: int, fn: Callable[..., None], *args: Any,
                    daemon: bool = False) -> None:
        """Schedule ``fn(*args)`` at absolute time ``t_ns`` (see
        :meth:`schedule` for ``daemon``)."""
        t_ns = int(t_ns)
        if t_ns < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {t_ns} < now={self._now}"
            )
        self._post(t_ns - self._now, fn, args, daemon)

    def defer_settle(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after the last event of the current instant,
        before the clock moves (see "Settle passes" above).  The caller
        defers a pass at most once per instant."""
        self._settles.append(fn)

    def settle(self) -> None:
        """Run the owed settle passes now, in the order they were
        deferred.  The run loops call this before the clock moves; a
        caller that inspects settled state mid-instant may call it too."""
        settles = self._settles
        for fn in settles:
            fn()
        settles.clear()

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay_ns: int, value: Any = None) -> Event:
        """An event that succeeds after ``delay_ns``, carrying ``value``."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule into the past: {self._now + delay_ns} "
                f"< now={self._now}"
            )
        ev = Event(self, name=f"timeout+{delay_ns}")
        self._post(delay_ns, ev.succeed, (value,), False)
        return ev

    def process(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "proc",
        gate: Any = None,
        daemon: bool = False,
    ) -> Process:
        """Start a new process from a generator.  ``daemon`` processes
        (perpetual noise sources, periodic kernel work) do not keep
        :meth:`run` alive."""
        return Process(self, gen, name=name, gate=gate, daemon=daemon)

    # -- execution --------------------------------------------------------------
    def run(self, until_ns: Optional[int] = None) -> int:
        """Run until the heap is exhausted or ``until_ns`` is reached.

        Returns the final simulated time.  Unhandled process failures with
        no joiner are re-raised here so they cannot be lost.
        """
        heap = self._heap
        pop = _heappop
        m_fired = self._m_fired
        orphans = self._orphan_failures
        settles = self._settles
        while True:
            if not heap or self._foreground <= 0:
                if settles:
                    self.settle()
                    continue
                break
            entry = heap[0]
            t = entry[0]
            if settles and t > self._now:
                self.settle()
                continue
            if until_ns is not None and t > until_ns:
                self._now = until_ns
                return until_ns
            pop(heap)
            if entry[5]:  # tombstoned by a lazy cancel
                continue
            if not entry[4]:
                self._foreground -= 1
            self._now = t
            if m_fired is not None:
                m_fired.value += 1
            entry[2](*entry[3])
            if orphans:
                name, exc = orphans[0]
                raise SimulationError(
                    f"process {name!r} failed with no joiner"
                ) from exc
        if until_ns is not None and until_ns > self._now:
            self._now = until_ns
        return self._now

    def run_until(self, event: Event, limit_ns: Optional[int] = None) -> int:
        """Run until ``event`` triggers (or the heap empties / ``limit_ns``).

        This is how experiments with perpetual noise sources terminate:
        the workload's completion event stops the loop even though the
        SMI source would keep scheduling forever.
        """
        heap = self._heap
        pop = _heappop
        m_fired = self._m_fired
        orphans = self._orphan_failures
        settles = self._settles
        while event._ok is None:
            if not heap:
                if settles:
                    self.settle()
                    continue
                break
            entry = heap[0]
            t = entry[0]
            if settles and t > self._now:
                self.settle()
                continue
            if limit_ns is not None and t > limit_ns:
                self._now = limit_ns
                return limit_ns
            pop(heap)
            if entry[5]:
                continue
            if not entry[4]:
                self._foreground -= 1
            self._now = t
            if m_fired is not None:
                m_fired.value += 1
            entry[2](*entry[3])
            if orphans:
                name, exc = orphans[0]
                raise SimulationError(
                    f"process {name!r} failed with no joiner"
                ) from exc
        return self._now

    def _record_orphan_failure(self, proc: Process, exc: BaseException) -> None:
        self._orphan_failures.append((proc.name, exc))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now} pending={len(self._heap)}>"
