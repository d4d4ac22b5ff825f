"""Trace recording: the simulator's equivalent of a measurement infrastructure.

The paper's central methodological point is that *the platform's own
instrumentation lies* about SMM time.  The :class:`Timeline` is the
omniscient observer that the real hardware lacks: every interesting
transition (SMM entry/exit, task state changes, messages) is
recorded here with ground-truth timestamps, so SMM residency
(:meth:`Timeline.intervals` + :meth:`Timeline.total_overlap`) can be
compared against the kernel's (deliberately wrong) accounting in
:mod:`repro.sched.accounting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["TraceRecord", "Timeline"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    ``kind`` is a dotted event name (``smm.enter``, ``task.run``,
    ``net.deliver``, ...); ``where`` identifies the component (node id, cpu
    id); ``data`` is a small dict of event attributes.
    """

    time: int
    kind: str
    where: str
    data: dict = field(default_factory=dict)


class Timeline:
    """An append-only trace with simple querying."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._records: list[TraceRecord] = []
        # Bound-method cache: record() is called once per SMM transition /
        # message / interrupt on big runs.
        self._append = self._records.append
        self._counters: dict[str, int] = {}

    # -- recording ----------------------------------------------------------
    def record(self, time: int, kind: str, where: str, **data: Any) -> None:
        """Record one transition.  A disabled timeline does nothing at all
        (no records *and* no counters) — hot call sites additionally guard
        with ``if timeline.enabled`` so a disabled run pays one attribute
        test, not a call."""
        if not self.enabled:
            return
        counters = self._counters
        counters[kind] = counters.get(kind, 0) + 1
        self._append(TraceRecord(time, kind, where, data))

    # -- querying ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self,
        kind: Optional[str] = None,
        where: Optional[str] = None,
        t0: Optional[int] = None,
        t1: Optional[int] = None,
        pred: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Filter records by kind prefix, component, time window, predicate."""
        out = []
        for r in self._records:
            if kind is not None and not r.kind.startswith(kind):
                continue
            if where is not None and r.where != where:
                continue
            if t0 is not None and r.time < t0:
                continue
            if t1 is not None and r.time >= t1:
                continue
            if pred is not None and not pred(r):
                continue
            out.append(r)
        return out

    def count(self, kind: str) -> int:
        """Total number of records of exactly this kind while *enabled*
        (muting does not affect counters; disabling stops them)."""
        return self._counters.get(kind, 0)

    def intervals(self, enter_kind: str, exit_kind: str, where: Optional[str] = None
                  ) -> list[tuple[int, int]]:
        """Pair up enter/exit records into [start, end) intervals.

        Used to extract SMM residency windows:
        ``timeline.intervals("smm.enter", "smm.exit", where="node0")``.
        Unclosed trailing intervals are dropped.
        """
        starts: list[int] = []
        out: list[tuple[int, int]] = []
        for r in self._records:
            if where is not None and r.where != where:
                continue
            if r.kind == enter_kind:
                starts.append(r.time)
            elif r.kind == exit_kind and starts:
                out.append((starts.pop(), r.time))
        return out

    @staticmethod
    def total_overlap(intervals: Iterable[tuple[int, int]], t0: int, t1: int) -> int:
        """Total time inside ``[t0, t1)`` covered by the (possibly
        unsorted, non-overlapping) intervals."""
        tot = 0
        for a, b in intervals:
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                tot += hi - lo
        return tot
