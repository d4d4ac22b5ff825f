"""Aggregated views over the kernel's (SMM-blind) process accounting.

The per-window charging itself happens in the scheduler's executor hook
(`Scheduler._make_account_hook`); each :class:`repro.sched.task.TaskAccount`
accumulates the three time streams.  This module provides the node-level
summaries of the paper's mis-attribution claim (§I, §V): the kernel's
utime (``kernel``) over-reports the true service time by exactly the
SMM-stolen time, per task (:attr:`TaskTimes.inflation_pct`) and in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.scheduler import Scheduler
    from repro.sched.task import Task

__all__ = ["AccountingReport", "TaskTimes"]


@dataclass(frozen=True)
class TaskTimes:
    """Snapshot of one task's accounted times (nanoseconds)."""

    name: str
    kernel_ns: float
    true_ns: float
    stolen_ns: float

    @property
    def inflation_pct(self) -> float:
        """How much the kernel over-reports this task's CPU time, %."""
        if self.true_ns <= 0:
            return 0.0
        return 100.0 * self.stolen_ns / self.true_ns


class AccountingReport:
    """Node-level accounting queries."""

    def __init__(self, scheduler: "Scheduler"):
        self.scheduler = scheduler

    def snapshot(self) -> List[TaskTimes]:
        return [
            TaskTimes(t.name, t.acct.kernel_ns, t.acct.true_ns, t.acct.stolen_ns)
            for t in self.scheduler.tasks
        ]

    def totals(self) -> Dict[str, float]:
        """Sums over tasks: what the kernel thinks was used vs reality."""
        kernel = true = stolen = 0.0
        for t in self.scheduler.tasks:
            kernel += t.acct.kernel_ns
            true += t.acct.true_ns
            stolen += t.acct.stolen_ns
        return {"kernel_ns": kernel, "true_ns": true, "stolen_ns": stolen}

    def conservation_error(self) -> float:
        """|kernel − (true + stolen)| — must be ~0 by construction; exposed
        so property tests can assert the invariant end-to-end."""
        tot = self.totals()
        return abs(tot["kernel_ns"] - (tot["true_ns"] + tot["stolen_ns"]))
