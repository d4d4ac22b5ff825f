"""The cluster interconnect: an α–β model with NIC serialization.

Message cost between distinct nodes::

    t_deliver = rx_nic_end( tx_nic_end(now, n) + α , n )

where each NIC direction is a FIFO serializer of bandwidth β — all ranks
of a node share one NIC, which is what makes 4-ranks-per-node placements
"poor fits for the underlying platform" for communication-heavy codes
(the paper's observation about FT, §III.C): four ranks' worth of
all-to-all traffic funnels through a single link.

Intra-node messages bypass the NIC entirely (shared-memory transport at
``memcpy_bw``).

Delivery to the destination's MPI matching engine is routed through the
**node gate**: DMA lands the bytes during SMM, but the unexpected-message
queue and any blocked receiver only learn about them at SMM exit — one of
the paths by which a frozen node stalls its communication partners.

The default constants are calibrated against the paper's SMM-0 base times
(:mod:`repro.core.calibration`); they land near classic GbE + TCP figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.simx.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["NetworkSpec", "Nic", "Network"]


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect constants.

    ``latency_ns`` (α) — per-message one-way latency.
    ``bandwidth_bps`` (β) — NIC serialization bandwidth, bytes/second.
    ``memcpy_bps`` — intra-node shared-memory transport bandwidth.
    ``sw_overhead_ops`` — CPU work (work units) burned per send and per
    recv in the MPI library (affected by SMM like all compute).
    ``per_byte_ops`` — CPU copy cost per byte (eager-protocol memcpy).
    """

    latency_ns: int = 120_000
    bandwidth_bps: float = 110e6
    memcpy_bps: float = 3e9
    sw_overhead_ops: float = 30_000.0
    per_byte_ops: float = 0.4

    def __post_init__(self) -> None:
        if self.latency_ns < 0 or self.bandwidth_bps <= 0 or self.memcpy_bps <= 0:
            raise ValueError("bad network constants")

    def wire_ns(self, nbytes: int) -> int:
        """Serialization time of ``nbytes`` on one NIC direction."""
        return int(nbytes * 1e9 / self.bandwidth_bps)

    def memcpy_ns(self, nbytes: int) -> int:
        return int(nbytes * 1e9 / self.memcpy_bps)


class Nic:
    """Per-node full-duplex NIC: two independent FIFO serializers."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self._tx_free = 0
        self._rx_free = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    def occupy_tx(self, earliest: int, nbytes: int) -> int:
        """Serialize ``nbytes`` outbound starting no earlier than
        ``earliest``; returns the finish time."""
        start = max(earliest, self._tx_free)
        end = start + self.spec.wire_ns(nbytes)
        self._tx_free = end
        self.tx_bytes += nbytes
        return end

    def occupy_rx(self, earliest: int, nbytes: int) -> int:
        start = max(earliest, self._rx_free)
        end = start + self.spec.wire_ns(nbytes)
        self._rx_free = end
        self.rx_bytes += nbytes
        return end

    def tx_queue_delay(self, now: int) -> int:
        """How long a message injected *now* would wait behind earlier
        traffic before its serialization starts."""
        return max(0, self._tx_free - now)


class Network:
    """The interconnect joining a cluster's nodes."""

    def __init__(self, engine: Engine, spec: NetworkSpec, metrics=None):
        self.engine = engine
        self.spec = spec
        self.messages = 0
        self.bytes_moved = 0
        #: When set, every transfer writes ``net.send``/``net.deliver``
        #: records to the endpoint nodes' timeline (the trace exporter
        #: turns these into flow arrows).  Off by default — large MPI
        #: runs move 10^5+ messages.
        self.trace = False
        self.metrics = metrics
        #: a repro.obs.attr.AttrCapture once attached (pure recording:
        #: it observes queueing delays and arrival times, never schedules).
        self.attr = None
        if metrics is not None:
            self._m_messages = metrics.counter("net.messages")
            self._m_bytes = metrics.counter("net.bytes")
            self._m_queue = metrics.histogram(
                "net.queue_delay_ns", "NIC tx serialization queue wait")
        else:
            self._m_messages = None
            self._m_bytes = None
            self._m_queue = None

    def attach(self, node: "Node") -> None:
        """Give a node its NIC."""
        node.nic = Nic(self.spec)

    def transfer(
        self,
        src: "Node",
        dst: "Node",
        nbytes: int,
        on_deliver: Callable[[], None],
        extra_latency_ns: int = 0,
    ) -> int:
        """Move ``nbytes`` from src to dst; ``on_deliver`` runs on the
        destination *through its gate* when the data is visible to host
        software.  Returns the scheduled physical arrival time.

        ``extra_latency_ns`` adds one-shot wire latency to this message
        only (an injected link-latency spike); the default 0 changes no
        arithmetic."""
        if nbytes < 0:
            raise ValueError("negative message size")
        self.messages += 1
        self.bytes_moved += nbytes
        now = self.engine.now
        if src is dst:
            t_done = now + 2_000 + self.spec.memcpy_ns(nbytes) + extra_latency_ns
            queue_ns = 0
        else:
            if src.nic is None or dst.nic is None:
                raise RuntimeError("node has no NIC; was it attached to the network?")
            queue_ns = src.nic.tx_queue_delay(now)
            t_tx = src.nic.occupy_tx(now, nbytes)
            t_arrive = t_tx + self.spec.latency_ns + extra_latency_ns
            t_done = dst.nic.occupy_rx(t_arrive, nbytes)
        if self._m_messages is not None:
            self._m_messages.value += 1
            self._m_bytes.value += nbytes
            self._m_queue.observe(queue_ns)
        if self.attr is not None:
            self.attr.on_transfer(queue_ns, t_done)
        if self.trace:
            msg_id = self.messages
            src.timeline.record(
                now, "net.send", src.name,
                id=msg_id, nbytes=nbytes, dst_node=dst.name,
            )

            def deliver_traced(sent_ns=now, src_name=src.name) -> None:
                dst.timeline.record(
                    self.engine.now, "net.deliver", dst.name,
                    id=msg_id, nbytes=nbytes, src_node=src_name,
                    sent_ns=sent_ns,
                )
                dst.deliver(on_deliver)

            self.engine.schedule_at(t_done, deliver_traced)
        else:
            self.engine._post(int(t_done) - now, dst.deliver, (on_deliver,), False)
        return t_done
