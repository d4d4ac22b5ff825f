"""The System Management Mode engine.

Reproduces the SMM semantics described in §II.A of the paper:

* An SMI is broadcast: **all logical CPUs of the node enter SMM
  simultaneously** and stay there until the handler finishes ("Because all
  CPU threads stay in SMM until the completion of the SMI's work, the
  severity of the impact increases with the number of cores").
* SMIs are **unmaskable** and higher priority than NMIs and device
  interrupts; other interrupts are only handled after SMM exits (the
  deferral itself is implemented by the node wake-up gate).
* SMM is **invisible to the OS**: free-running clocks advance, and the
  kernel's process accounting charges the frozen interval to whatever was
  running (see :mod:`repro.sched.accounting`).
* An SMI arriving *while already in SMM* is latched (the x86 SMI latch
  holds at most one pending SMI) and re-delivered shortly after exit.

The controller also self-measures per-SMI latency via the node TSC,
exactly like the "Blackbox SMI" driver the paper uses (§III.B), so the
driver model in :mod:`repro.core.driver` can report measured latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.simx.engine import Engine, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["SmmController", "SmmStats"]

#: Re-delivery gap for a latched SMI after SMM exit (handler-to-handler
#: turnaround; microseconds on real chipsets).
RELATCH_GAP_NS = 2_000

#: Cost of the entry rendezvous: the time from SMI assertion until all
#: cores have saved state and entered SMM.  Folded into the residency
#: window (cores are effectively lost for it as well).
ENTRY_LATENCY_NS = 5_000


@dataclass
class SmmStats:
    """Aggregate SMM residency statistics for one node."""

    entries: int = 0
    total_ns: int = 0
    latched: int = 0
    durations_ns: List[int] = field(default_factory=list)
    #: TSC-measured latency of each SMI, as the Blackbox driver reports it.
    measured_latency_ns: List[int] = field(default_factory=list)

    @property
    def mean_latency_ns(self) -> float:
        if not self.measured_latency_ns:
            return 0.0
        return sum(self.measured_latency_ns) / len(self.measured_latency_ns)


class SmmController:
    """Per-node SMM state machine."""

    def __init__(self, node: "Node"):
        self.node = node
        self.engine: Engine = node.engine
        self.in_smm = False
        self.stats = SmmStats()
        self._pending_ns: Optional[int] = None
        self._exit_waiters: List[Event] = []
        self._enter_tsc = 0
        m = node.metrics
        if m is not None:
            self._m_entries = m.counter("smm.entries", "SMM entries (all nodes)")
            self._m_latched = m.counter(
                "smm.latched", "SMIs latched while already in SMM")
            self._m_residency = m.histogram(
                "smm.residency_ns", "TSC-measured residency per SMM entry")
        else:
            self._m_entries = None
            self._m_latched = None
            self._m_residency = None

    # -- triggering ------------------------------------------------------------
    def trigger(self, duration_ns: int, source: str = "smi") -> bool:
        """Assert an SMI whose handler will run for ``duration_ns``.

        Returns True if SMM was entered now; False if the SMI was latched
        because the node is already in SMM (at most one pending — further
        assertions are absorbed, as on real hardware).
        """
        if duration_ns <= 0:
            raise ValueError("SMI duration must be positive")
        if self.node._failed or self.node._hung:
            # Dead silicon: a crashed node asserts nothing, and a hung
            # node is already (permanently) in its handler — further SMIs
            # are absorbed without latching.
            return False
        if self.in_smm:
            self.stats.latched += 1
            if self._m_latched is not None:
                self._m_latched.value += 1
            if self._pending_ns is None or duration_ns > self._pending_ns:
                self._pending_ns = int(duration_ns)
            return False
        self._enter(int(duration_ns), source)
        return True

    def wait_exit(self) -> Event:
        """Event that succeeds at the next SMM exit (immediately if the
        node is not in SMM)."""
        ev = self.engine.event(name=f"{self.node.name}.smm_exit")
        if not self.in_smm:
            ev.succeed()
        else:
            self._exit_waiters.append(ev)
        return ev

    # -- state machine ---------------------------------------------------------
    def _enter(self, duration_ns: int, source: str) -> None:
        self.in_smm = True
        self._enter_tsc = self.node.clock.rdtsc()
        residency = ENTRY_LATENCY_NS + duration_ns
        self.node.freeze()
        tl = self.node.timeline
        if tl.enabled:
            tl.record(
                self.engine.now, "smm.enter", self.node.name,
                duration_ns=duration_ns, source=source,
            )
        self.engine.schedule(residency, self._exit)

    def _exit(self) -> None:
        now = self.engine.now
        exit_tsc = self.node.clock.rdtsc()
        measured = self.node.clock.tsc_to_ns(exit_tsc - self._enter_tsc)
        self.stats.entries += 1
        self.stats.measured_latency_ns.append(measured)
        self.stats.durations_ns.append(measured)
        self.stats.total_ns += measured
        if self._m_entries is not None:
            self._m_entries.value += 1
            self._m_residency.observe(measured)
        self.in_smm = False
        self.node.unfreeze()
        tl = self.node.timeline
        if tl.enabled:
            tl.record(now, "smm.exit", self.node.name, measured_ns=measured)
        waiters, self._exit_waiters = self._exit_waiters, []
        for ev in waiters:
            ev.succeed()
        if self._pending_ns is not None:
            pending, self._pending_ns = self._pending_ns, None
            self.engine.schedule(RELATCH_GAP_NS, self._relatch, pending)

    def _relatch(self, duration_ns: int) -> None:
        # The latched SMI may race with a fresh trigger; trigger() handles
        # the already-in-SMM case by re-latching.
        self.trigger(duration_ns, source="latched")
