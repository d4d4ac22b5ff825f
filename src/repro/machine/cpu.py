"""Logical-CPU execution: processor sharing + HTT coupling + SMM freeze.

Each online logical CPU serves the compute segments of the tasks placed on
it through a :class:`repro.simx.rate.RateExecutor`.  The rate assigned to
a task's current segment is::

    rate = gross_hz(cpu) / n_tasks_on_cpu * cache_efficiency(task)

where ``gross_hz`` implements Hyper-Threading coupling:

* 0 if the node is frozen in SMM, or the CPU is offline;
* ``base_hz`` if this CPU is the only busy sibling on its physical core;
* ``base_hz * htt_yield / 2`` if both siblings are busy — the pair
  together delivers ``htt_yield`` (in single-sibling units), split evenly.
  ``htt_yield`` is averaged over the workload profiles of every task on
  the two siblings, because the SMT benefit depends on the *mix* of
  co-scheduled instruction streams (§II.B).

``cache_efficiency`` comes from :class:`repro.machine.cache.CacheHierarchy`
using the working sets of tasks co-resident at each sharing level.

:meth:`repro.machine.node.Node._settle` evaluates it for all busy CPUs
in one pass, once per instant in which something changed (see
:meth:`repro.machine.node.Node.recompute`), never per-instruction: the
fluid model (DESIGN.md §5.1) is exact between transitions.
"""

from __future__ import annotations

from functools import partial
from typing import List, TYPE_CHECKING

from repro.simx.engine import Engine
from repro.simx.rate import RateExecutor, WorkItem
from repro.machine.profile import WorkloadProfile
from repro.machine.topology import LogicalCpuState

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["LogicalCpu"]


def _segment_done(item: WorkItem) -> None:
    """Default completion callback: a bare CPU has no run queues to update
    (the scheduler installs its own as ``executor.on_complete``); the
    owning task wakes via ``item.done`` either way."""


class LogicalCpu:
    """Execution model of one logical CPU on a node."""

    def __init__(self, node: "Node", state: LogicalCpuState):
        self.node = node
        self.state = state
        self.engine: Engine = node.engine
        # Executor 0↔nonzero membership transitions keep the node's
        # busy-CPU list current (the basis of every O(busy) rate pass);
        # the node owns its rates, so it settles and reschedules it.
        self.executor = RateExecutor(
            self.engine, _segment_done, partial(node._cpu_busy_changed, self),
            owner=node)
        #: persistent rate multiplier in (0, 1]; < 1 models a straggler
        #: CPU (thermal throttling, a sick core).  ``x * 1.0 == x``
        #: exactly in IEEE-754, so the default changes no computed rate.
        self.degradation: float = 1.0

    # -- identity ----------------------------------------------------------
    @property
    def index(self) -> int:
        return self.state.index

    @property
    def online(self) -> bool:
        return self.state.online

    @property
    def busy(self) -> bool:
        """True if at least one compute segment is currently placed here."""
        return len(self.executor) > 0

    @property
    def n_tasks(self) -> int:
        return len(self.executor)

    def profiles(self) -> List[WorkloadProfile]:
        """Profiles of segments currently placed on this CPU."""
        return [item.meta.profile for item in self.executor.items]

    # -- placement ----------------------------------------------------------
    def add_segment(self, item: WorkItem) -> None:
        """Place a compute segment here.  ``item.meta`` must expose a
        ``profile`` attribute (the owning task).  Caller must first call
        :meth:`repro.machine.node.Node.recompute`, which settles the
        node's rates before the clock moves."""
        if not self.state.online:
            raise RuntimeError(f"placing work on offline cpu{self.index}")
        self.executor.add(item, rate=0.0)

    def remove_segment(self, item: WorkItem) -> None:
        """Evict a segment (migration / cancellation)."""
        self.executor.remove(item)

    # -- fault injection ----------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Persistently scale this CPU's deliverable rate by ``factor``
        (a straggler fault).  Takes effect at the current instant for all
        resident and future segments."""
        if not (0.0 < factor <= 1.0):
            raise ValueError(f"degradation factor must be in (0, 1]: {factor}")
        self.node.recompute()
        self.degradation = float(factor)

    # -- rate computation ---------------------------------------------------
    def gross_hz(self) -> float:
        """Deliverable throughput of this CPU (work units/second) before
        per-task sharing and cache efficiency.  ``Node._settle``
        computes the same float inline; tests use this as the reference."""
        if self.node.frozen or not self.state.online or not self.busy:
            return 0.0
        base = self.node.spec.base_hz * self.degradation
        sib_state = self.state.sibling
        if sib_state is None or not sib_state.online:
            return base
        sib = self.node.cpu(sib_state.index)
        if not sib.busy:
            return base
        # Both siblings busy: aggregate yield from the combined task mix.
        mix = self.profiles() + sib.profiles()
        combined_yield = sum(p.htt_yield for p in mix) / len(mix)
        return base * combined_yield / 2.0

    def solo_rate(self, profile: WorkloadProfile) -> float:
        """Rate (work units per nanosecond) of a lone segment of
        ``profile`` when this is the node's only busy CPU and the node is
        running, for the scheduler's lone-segment placement.  The settle
        pass computes the same bits for that state: its memo key is
        :meth:`CacheHierarchy.efficiency_solo`'s ``(profile, ws, ws)`` and
        its share is ``base_hz * degradation / 1``."""
        node = self.node
        eff = node.cache_hierarchy.efficiency_solo(profile)
        return node.spec.base_hz * self.degradation * eff / 1e9

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LogicalCpu {self.node.name}:cpu{self.index} tasks={self.n_tasks}>"
