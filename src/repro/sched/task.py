"""The task model: what workloads are made of.

A :class:`Task` is the schedulable unit.  Workload code is a generator
function that receives the task and drives it through the cooperative
API::

    def body(task):
        yield from task.compute(2.0e9)     # 2 G work units
        yield from task.sleep(5_000_000)   # 5 ms
        v = yield from task.wait(some_event)
        return result

Compute segments are served by the CPU model at rates that reflect
processor sharing, HTT coupling, cache contention, and SMM freezes; the
task process itself is *gated* by its node, so even pure sleeps cannot
complete while the node is in SMM (timer interrupts are deferred).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Optional, TYPE_CHECKING

from repro.simx.engine import AnyOf, Delay, Event, Process
from repro.simx.rate import WorkItem
from repro.machine.profile import WorkloadProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node
    from repro.sched.scheduler import Scheduler

__all__ = ["Task", "TaskAccount", "TaskState"]


class TaskState(enum.Enum):
    NEW = "new"
    RUNNING = "running"     # a compute segment is placed on a CPU
    BLOCKED = "blocked"     # sleeping / waiting (consumes no CPU)
    DONE = "done"


@dataclass
class TaskAccount:
    """Per-task CPU time, three ways.

    ``kernel_ns`` is what ``/proc/<pid>/stat`` would report: it *includes*
    time stolen by SMM, because the kernel cannot see the freeze and
    charges the wall interval to the task that occupied the CPU (§II.A:
    "the time is incorrectly attributed to whatever was running at the
    time of the SMI").  ``true_ns`` is ground truth service time, and
    ``stolen_ns`` is the SMM-resident share — the discrepancy a
    measurement tool would silently mis-report.
    """

    kernel_ns: float = 0.0
    true_ns: float = 0.0
    stolen_ns: float = 0.0
    segments: int = 0
    work_done: float = 0.0


class Task:
    """One schedulable task bound to a node."""

    _ids = 0

    def __init__(
        self,
        node: "Node",
        scheduler: "Scheduler",
        name: str,
        profile: WorkloadProfile,
        affinity: Optional[Iterable[int]] = None,
    ):
        Task._ids += 1
        self.tid = Task._ids
        self.node = node
        self.scheduler = scheduler
        self.name = name
        self._seg_name = f"{name}.seg"  # every compute segment's item name
        self.profile = profile
        self.affinity: Optional[frozenset[int]] = (
            frozenset(affinity) if affinity is not None else None
        )
        self.state = TaskState.NEW
        self.cpu = None  # LogicalCpu while RUNNING
        self.current_item: Optional[WorkItem] = None
        self.acct = TaskAccount()
        self.proc: Optional[Process] = None
        self.started_ns: Optional[int] = None
        self.finished_ns: Optional[int] = None

    # -- workload API ----------------------------------------------------------
    def compute(self, work_units: float, profile: Optional[WorkloadProfile] = None
                ) -> Generator[Any, Any, None]:
        """Execute ``work_units`` of computation (generator; yield from it).

        ``profile`` temporarily overrides the task's profile for this
        segment (used by phase-heterogeneous workloads like FT, whose
        FFT and transpose phases behave differently).
        """
        if work_units < 0:
            raise ValueError("negative work")
        if work_units == 0:
            return
        old_profile = self.profile
        if profile is not None:
            self.profile = profile
        try:
            item = WorkItem(
                self.node.engine, work_units, meta=self, name=self._seg_name
            )
            self.current_item = item
            self.scheduler.start_segment(self, item)
            yield item.done
            self.acct.segments += 1
            self.acct.work_done += work_units
        finally:
            self.current_item = None
            self.profile = old_profile

    def sleep(self, ns: int) -> Generator[Any, Any, None]:
        """Block for ``ns`` of wall time (no CPU consumed).  The wake-up is
        routed through the node gate, so a sleep that expires during SMM
        completes only at SMM exit."""
        self.state = TaskState.BLOCKED
        yield Delay(int(ns))
        self.state = TaskState.BLOCKED  # stays blocked until next compute

    def wait(self, event: Event) -> Generator[Any, Any, Any]:
        """Block on an event; resumes with its value (gated by the node)."""
        self.state = TaskState.BLOCKED
        value = yield event
        return value

    def wait_any(self, events: Iterable[Event]) -> Generator[Any, Any, Any]:
        """Block until the first of ``events`` triggers; resumes with
        ``(index, value)`` (gated by the node).  Used by the MPI layer to
        race a receive completion against a timeout timer."""
        self.state = TaskState.BLOCKED
        result = yield AnyOf(events)
        return result

    def now_ns(self) -> int:
        """Node-local CLOCK_MONOTONIC (see :class:`repro.machine.clock.Clock`)."""
        return self.node.clock.monotonic_ns()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Task {self.name} tid={self.tid} {self.state.value}>"
