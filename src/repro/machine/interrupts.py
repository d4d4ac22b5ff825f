"""Interrupt controller: priority, maskability, and SMM deferral.

Encodes the x86 interrupt taxonomy the paper leans on (§II.A, §II.C):

* **SMI** — highest priority, unmaskable, broadcast; routed straight to
  the SMM controller.  Nothing preempts SMM.
* **NMI** — unmaskable by the OS, but *cannot be delivered during SMM*;
  it pends and is handled at SMM exit.
* **Timer / device IRQs** — maskable by the OS; also pend during SMM.

The controller records per-interrupt delivery latency so tests and
benchmarks can demonstrate the paper's point that "other device
interrupts will only be handled after [SMM] has finished its work" — the
very effect that makes the OS timer interrupt studied by Beckman et al.
[12] itself a victim of SMI noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["IrqClass", "IrqRecord", "InterruptController"]


class IrqClass(IntEnum):
    """Interrupt classes in decreasing priority order."""

    SMI = 0
    NMI = 1
    TIMER = 2
    DEVICE = 3


@dataclass
class IrqRecord:
    """Bookkeeping for one delivered interrupt."""

    irq_class: IrqClass
    vector: int
    raised_at: int
    delivered_at: int = -1

    @property
    def latency_ns(self) -> int:
        return self.delivered_at - self.raised_at if self.delivered_at >= 0 else -1


@dataclass
class _Pending:
    record: IrqRecord
    payload: object


class InterruptController:
    """Per-node interrupt routing."""

    def __init__(self, node: "Node"):
        self.node = node
        self.engine = node.engine
        self._handlers: Dict[int, Callable[[IrqRecord, object], None]] = {}
        self._masked: set[int] = set()
        self._masked_pending: List[_Pending] = []
        self.history: List[IrqRecord] = []
        self.deferred_by_smm = 0

    # -- configuration ----------------------------------------------------
    def register(self, vector: int, handler: Callable[[IrqRecord, object], None]) -> None:
        """Install a handler for a vector.  One handler per vector."""
        self._handlers[vector] = handler

    def mask(self, vector: int) -> None:
        """OS-level masking.  Only TIMER/DEVICE interrupts honour masks;
        the mask set is consulted at delivery time."""
        self._masked.add(vector)

    def unmask(self, vector: int) -> None:
        self._masked.discard(vector)
        still_pending: List[_Pending] = []
        for p in self._masked_pending:
            if p.record.vector in self._masked:
                still_pending.append(p)
            else:
                self._route(p)
        self._masked_pending = still_pending

    # -- raising --------------------------------------------------------------
    def raise_irq(
        self,
        irq_class: IrqClass,
        vector: int = 0,
        payload: object = None,
        smi_duration_ns: Optional[int] = None,
    ) -> IrqRecord:
        """Assert an interrupt.  For ``IrqClass.SMI`` the payload is the
        handler residency (``smi_duration_ns`` required)."""
        rec = IrqRecord(irq_class, vector, raised_at=self.engine.now)
        if irq_class is IrqClass.SMI:
            if smi_duration_ns is None:
                raise ValueError("SMI requires smi_duration_ns")
            rec.delivered_at = self.engine.now  # SMIs are never deferred
            self.history.append(rec)
            self.node.smm.trigger(smi_duration_ns, source=f"irq{vector}")
            return rec
        if irq_class in (IrqClass.TIMER, IrqClass.DEVICE) and vector in self._masked:
            self._masked_pending.append(_Pending(rec, payload))
            self.history.append(rec)
            return rec
        pend = _Pending(rec, payload)
        if self.node.frozen:
            # NMI and IRQ alike pend until SMM exit: SMIs outrank them.
            self.deferred_by_smm += 1
            self.node.deliver(self._route, (pend,))
        else:
            self.engine.schedule(0, self._route, pend)
        self.history.append(rec)
        return rec

    def _route(self, pending: _Pending) -> None:
        rec = pending.record
        if rec.vector in self._masked and rec.irq_class in (IrqClass.TIMER, IrqClass.DEVICE):
            self._masked_pending.append(pending)
            return
        rec.delivered_at = self.engine.now
        tl = self.node.timeline
        if tl.enabled:
            tl.record(
                rec.delivered_at,
                "irq.deliver",
                self.node.name,
                irq_class=rec.irq_class.name,
                vector=rec.vector,
                latency_ns=rec.latency_ns,
            )
        handler = self._handlers.get(rec.vector)
        if handler is not None:
            handler(rec, pending.payload)

    # -- statistics --------------------------------------------------------
    def max_delivery_latency_ns(self, irq_class: Optional[IrqClass] = None) -> int:
        """Worst observed raise→deliver latency (−1 if nothing delivered)."""
        worst = -1
        for r in self.history:
            if irq_class is not None and r.irq_class is not irq_class:
                continue
            if r.delivered_at >= 0:
                worst = max(worst, r.latency_ns)
        return worst
