"""Piecewise-constant-rate work execution.

This is the numerical heart of the CPU model.  A :class:`WorkItem` is a
demand of ``W`` abstract work units (think: useful operations).  A
:class:`RateExecutor` serves a set of items, each at its own
piecewise-constant rate (units per nanosecond).  Rates change only at
discrete instants — task arrival/departure, SMM freeze/unfreeze, an HTT
sibling becoming busy or idle, a cache-contention change — and between
those instants the executor needs **no events at all**: it simply knows
when the earliest completion will occur and schedules exactly one timer.

This "fluid" formulation makes whole-run simulations exact and cheap: a
24-thread convolution run produces a few hundred events rather than
billions of cycle ticks, yet completion times are identical to what an
infinitesimally-fine round-robin would give (processor sharing is the
fluid limit of round-robin; see DESIGN.md §5.1).

Invariants (property-tested in ``tests/simx/test_rate.py``):

* *Work conservation*: at every instant, sum over items of executed work
  equals the integral of the total service rate.
* *Monotonicity*: an item's remaining demand never increases.
* *Exact completion*: an item completes exactly when its integrated rate
  reaches its demand (to within one nanosecond of timer quantization).

Structure-of-arrays core (DESIGN.md §3)
---------------------------------------
Items are stored as parallel arrays — an insertion-ordered item list
plus a rate column — so ``sync``/``set_rates``/``_reschedule`` are
single indexed passes over contiguous storage instead of dict
iterations.  There is one engine, :class:`RateExecutor`, in pure Python.
Real executors hold one item (a rank per CPU) up to a couple of dozen
(Convolve's 24 threads stacked on one CPU), far below the size at which
array kernels would pay for their call overhead.

*Uniform-rate ETA.*  When every resident item has the same rate ``r > 0``
— a lone item, or stacked threads of one profile — the soonest
completion is the ETA of the least remaining work: one division instead
of one per item.  This is exact, not approximate: ``x/r + 0.999999`` and
then ``int`` are each monotone in ``x``, an item at or below
``_EPS_WORK`` maps to 0 (the least ETA), and the ``_ETA_CAP`` horizon
only ever cuts off the largest ETAs, so the minimum of the per-item ETAs
is the ETA of the minimum.  Mixed rates take the per-item loop.

Lone-segment fast path (DESIGN.md §3 "Performance")
---------------------------------------------------
Most MPI compute segments run alone on an idle node.  For those, the
owner admits the item with :meth:`RateExecutor.add` at its final rate
while no settle is owed: on an empty executor that leaves the rates a
settle pass would assign and pushes the same single timer, at once.
When the timer fires and completes the executor's last item,
:meth:`RateExecutor._on_timer` returns straight after :meth:`sync`,
skipping the leftover scan and the reschedule of an empty executor,
which would post nothing.  Every other case takes the general code.

Once-per-instant settle (DESIGN.md §3 "Performance")
----------------------------------------------------
An executor may have an ``owner`` (its node) whose rate assignment
covers it.  While ``owner.unsettled`` is set, the owner owes one settle
pass at this instant — run by the engine before the clock moves — which
syncs, reassigns every busy executor's rates and reschedules its timer.
Membership changes and timer firings in that window still sync and
evict eagerly, but skip their own reschedule: its timer would be
cancelled before time moves.  A zero-length window integrates nothing,
so every positive window runs at the rates of the instant's final
state.

*ETA keep* — rescheduling keeps the live timer when the new fire time
equals the old one **and** nothing else was scheduled since the timer
was pushed (``timer seq == engine seq``).  Re-pushing would then yield
the adjacent sequence number with no intervening events, so keeping
the entry is observationally identical.

One hygiene rule on top (the stale-ETA fix): whenever the executor goes
empty — the last item removed (even while a settle is owed) or sync
completing everything it held — the live timer is cancelled
*immediately*.  Cancellation is a tombstone (no new event, no sequence
number), so the event stream is unchanged, but ``_on_timer`` can no
longer fire for an item that is already dead.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.simx.engine import Engine, Event
from repro.simx.errors import SimulationError

__all__ = ["WorkItem", "RateExecutor"]

# Completion slack: float rounding can leave a vanishing residue of work;
# anything below this fraction of a unit counts as done.
_EPS_WORK = 1e-6

# Completion horizon: an ETA beyond ~292 years of simulated time means the
# assigned rate is effectively zero (denormal floats); schedule nothing and
# wait for the next rate change instead of overflowing the clock.
_ETA_CAP = float(1 << 62)


_remaining = attrgetter("remaining")


def _eta_ns(remaining: float, rate: float) -> Optional[int]:
    """Whole nanoseconds until ``remaining`` work is done at ``rate > 0``
    (``None`` past the completion horizon).  Non-decreasing in
    ``remaining``: division by a positive rate, the constant offset and
    ``int`` are each monotone, the zero-demand case maps to the least
    value, and the horizon cuts off only the largest values."""
    if remaining <= _EPS_WORK:
        return 0  # degenerate zero-demand item: completes now
    eta_f = remaining / rate + 0.999999
    if eta_f >= _ETA_CAP:
        # Vanishing rate: no practical progress — treat like a zero rate
        # (no completion timer until rates change).
        return None
    eta = int(eta_f)
    return eta if eta >= 1 else 1


class WorkItem:
    """A demand of ``demand`` work units with a completion event.

    ``meta`` is an arbitrary payload (the owning task, for the CPU model).
    """

    __slots__ = ("demand", "remaining", "done", "meta", "started_at", "finished_at")

    def __init__(self, engine: Engine, demand: float, meta=None, name: str = "work"):
        if demand < 0:
            raise ValueError(f"negative demand: {demand}")
        self.demand = float(demand)
        self.remaining = float(demand)
        self.done: Event = Event(engine, f"{name}.done")
        self.meta = meta
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkItem {self.remaining:.3g}/{self.demand:.3g}>"


class RateExecutor:
    """Serves :class:`WorkItem`\\ s at externally-assigned rates.

    The owner (a :class:`repro.machine.cpu.LogicalCpu`) is responsible for
    calling :meth:`set_rates` with a full rate assignment whenever anything
    that affects rates changes.  The executor:

    1. advances every item's ``remaining`` for the elapsed interval at the
       *old* rates (``sync``),
    2. records the new rates,
    3. re-schedules the single next-completion timer.

    Completion order among simultaneous finishers follows insertion order
    (deterministic).

    ``on_busy_change(busy)`` — optional — fires on every 0↔nonzero
    membership transition (the node uses it to maintain its busy-CPU
    set), *after* the transitioning add/remove mutated storage but
    before the associated reschedule.

    ``owner`` — optional — an object whose ``unsettled`` flag means it
    owes a settle pass at this instant that reschedules this executor
    (see "Once-per-instant settle" above).
    """

    __slots__ = (
        "engine",
        "on_complete",
        "on_busy_change",
        "_items",
        "_index",
        "_rate",
        "_last_sync",
        "_timer",
        "_timer_time",
        "owner",
        "total_work_served",
        "pre_sync",
    )

    def __init__(
        self,
        engine: Engine,
        on_complete: Callable[[WorkItem], None],
        on_busy_change: Optional[Callable[[bool], None]] = None,
        owner=None,
    ):
        self.engine = engine
        self.on_complete = on_complete
        self.on_busy_change = on_busy_change
        # Structure-of-arrays storage: _items[i] runs at _rate[i] units/ns.
        # _index maps item -> slot; slots shift down on removal so the
        # array order always equals insertion order (the completion
        # tie-break contract).  Remaining work lives on the items.
        self._items: List[WorkItem] = []
        self._index: Dict[WorkItem, int] = {}
        self._rate: List[float] = []
        self._last_sync = engine.now
        self._timer: Optional[list] = None  # raw engine heap entry
        self._timer_time = 0  # absolute fire time of the live timer
        self.owner = owner
        self.total_work_served = 0.0  # lifetime integral, for conservation tests
        #: Optional hook ``pre_sync(dt_ns)`` called at the top of every
        #: non-empty sync window, *before* items are advanced or evicted.
        #: The CPU model uses it for kernel-style time accounting: the
        #: window [last_sync, now) is homogeneous (rates and freeze state
        #: constant), so integrating task CPU shares here is exact.
        self.pre_sync: Optional[Callable[[int], None]] = None

    # -- membership --------------------------------------------------------
    @property
    def items(self) -> List[WorkItem]:
        """Resident items in insertion order (the live list — don't
        mutate; callers that remove while iterating must copy first)."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: WorkItem, rate: float = 0.0) -> None:
        """Admit an item (initially at ``rate``).  Caller normally follows
        with :meth:`set_rates` to rebalance everyone."""
        if item in self._index:
            raise SimulationError("work item already admitted")
        self.sync()
        if item.started_at is None:
            item.started_at = self.engine.now
        items = self._items
        self._index[item] = len(items)
        items.append(item)
        self._rate.append(float(rate))
        if len(items) == 1 and self.on_busy_change is not None:
            self.on_busy_change(True)
        self._reschedule()

    def remove(self, item: WorkItem) -> None:
        """Evict an item (e.g. the task migrated to another CPU)."""
        self.sync()
        i = self._index.pop(item, None)
        if i is not None:
            self._evict_slot(i)
            if not self._items:
                self._cancel_timer()
                if self.on_busy_change is not None:
                    self.on_busy_change(False)
        self._reschedule()

    def _evict_slot(self, i: int) -> None:
        items = self._items
        del items[i]
        del self._rate[i]
        index = self._index
        for j in range(i, len(items)):
            index[items[j]] = j

    def _cancel_timer(self) -> None:
        # Tombstone the live timer (no event, no sequence number): an
        # empty executor must never fire _on_timer — the stale-ETA rule.
        timer = self._timer
        if timer is not None:
            self.engine._cancel_entry(timer)
            self._timer = None

    # -- rate control ---------------------------------------------------------
    def sync(self) -> None:
        """Advance all items to ``engine.now`` at the current rates, and
        complete any that finish exactly in the elapsed window."""
        now = self.engine._now
        dt = now - self._last_sync
        if dt <= 0:
            return
        self._last_sync = now
        items = self._items
        if not items:
            return
        if self.pre_sync is not None:
            self.pre_sync(dt)
        finished = None
        total = self.total_work_served
        rate_s = self._rate
        i = 0
        for item in items:
            rate = rate_s[i]
            i += 1
            if rate <= 0.0:
                continue
            served = rate * dt
            remaining = item.remaining
            if served >= remaining - _EPS_WORK:
                served = remaining
                if finished is None:
                    finished = [item]
                else:
                    finished.append(item)
            item.remaining = remaining - served
            total += served
        self.total_work_served = total
        if finished is not None:
            self._finish_batch(finished)

    def _finish_batch(self, finished: List[WorkItem]) -> None:
        for item in finished:
            self._complete(item)
        if not self._items:
            self._cancel_timer()

    def set_rates(self, rates: Dict[WorkItem, float]) -> None:
        """Assign new rates.  Items not mentioned keep their old rate;
        callers that rebalance everything pass a complete mapping.
        :meth:`sync` must already have been called by the code path that
        changed conditions — ``set_rates`` calls it defensively anyway."""
        self.sync()
        index = self._index
        rate_s = self._rate
        for item, rate in rates.items():
            i = index.get(item)
            if i is None:
                raise SimulationError("set_rates for unadmitted item")
            if rate < 0:
                raise ValueError("negative rate")
            rate_s[i] = float(rate)
        self._reschedule()

    # -- internals -------------------------------------------------------------
    def _complete(self, item: WorkItem) -> None:
        i = self._index.pop(item)
        self._evict_slot(i)
        item.remaining = 0.0
        item.finished_at = self.engine._now
        if not self._items and self.on_busy_change is not None:
            self.on_busy_change(False)
        self.on_complete(item)
        if item.done._ok is None:
            item.done.succeed(item)

    def _soonest_eta(self) -> Optional[int]:
        """Nanoseconds until the earliest completion at current rates
        (``None``: nothing can complete until rates change)."""
        items = self._items
        if not items:
            return None
        rate_s = self._rate
        rate = rate_s[0]
        if rate_s.count(rate) == len(rate_s):
            # Uniform rate (a lone item, or threads of one profile stacked
            # on one CPU): _eta_ns is monotone in the remaining work, so
            # the least-remaining item completes first — one division.
            if rate <= 0.0:
                return None
            return _eta_ns(min(map(_remaining, items)), rate)
        soonest: Optional[int] = None
        for item, rate in zip(items, rate_s):
            if rate <= 0.0:
                continue
            eta = _eta_ns(item.remaining, rate)
            if eta is not None and (soonest is None or eta < soonest):
                soonest = eta
        return soonest

    def _reschedule(self) -> None:
        owner = self.owner
        if owner is not None and owner.unsettled:
            return  # the owner's settle pass reschedules this executor
        soonest = self._soonest_eta()
        engine = self.engine
        timer = self._timer
        if soonest is None:
            if timer is not None:
                engine._cancel_entry(timer)
                self._timer = None
            return
        t_abs = engine._now + soonest
        if timer is not None:
            if (self._timer_time == t_abs and not timer[5]
                    and timer[1] == engine._seq):
                # ETA keep: same fire time and no event scheduled since
                # this timer was pushed — a fresh push would occupy the
                # adjacent sequence slot, so keeping it is identical.
                return
            engine._cancel_entry(timer)
        self._timer = engine._post(soonest, self._on_timer, (), False)
        self._timer_time = t_abs

    def _on_timer(self) -> None:
        self._timer = None
        self.sync()
        if not self._items:
            # The usual case, a lone item just completed: the leftover
            # scan and the reschedule of an empty executor post nothing.
            return
        # sync() completed whoever finished; if rounding left stragglers
        # within epsilon, finish them too.
        leftovers = None
        rate_s = self._rate
        i = 0
        for item in self._items:
            rate = rate_s[i]
            i += 1
            if rate > 0.0 and item.remaining <= _EPS_WORK:
                if leftovers is None:
                    leftovers = [item]
                else:
                    leftovers.append(item)
        if leftovers is not None:
            self._finish_batch(leftovers)
        self._reschedule()
