"""Message matching, ranks, and point-to-point communication.

Semantics (a faithful subset of MPI, shaped like mpi4py's lowercase API):

* **Eager buffered sends** — ``send`` returns once the local library work
  (overhead + copy) is done; the wire transfer proceeds asynchronously.
  This matches small/medium-message MPI behaviour; the rendezvous
  protocol for huge messages is not modeled (the paper's workloads
  exchange at most tens of MB, where eager + NIC serialization captures
  the timing).
* **Non-overtaking matching** — messages between a (source, dest) pair
  with equal tags are matched in send order (the per-rank
  :class:`repro.simx.resources.Store` scans oldest-first).
* ``ANY_SOURCE`` / ``ANY_TAG`` wildcards are supported.
* ``irecv`` returns a :class:`Request`; ``wait`` blocks the
  calling rank's task.

Every CPU cost (library overhead, eager copy) is executed as *work* on
the rank's task, so it freezes with SMM, shares the CPU under
oversubscription, and shows up in the kernel's (mis-)accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.simx.engine import Event
from repro.simx.resources import Store
from repro.mpi.errors import (
    CorruptedPayload,
    MpiCorruptionError,
    MpiTimeoutError,
    RankFailedError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.cluster import Cluster
    from repro.sched.task import Task

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "Request", "Rank", "Communicator"]

ANY_SOURCE = -1
ANY_TAG = -1

#: Tag space reserved for collective algorithms (see collectives.py).
COLL_TAG_BASE = 1 << 20


@dataclass(frozen=True)
class Message:
    """One point-to-point message (envelope + optional payload)."""

    src: int
    dst: int
    tag: int
    nbytes: int
    payload: Any = None
    seq: int = 0


def _envelope_key(m: "Message"):
    """Mailbox index key: matching is by (source, tag) envelope."""
    return (m.src, m.tag)


class Request:
    """Handle for a non-blocking operation."""

    #: envelope + post time, stamped only under attribution capture or
    #: wait tracing (class-level defaults keep the clean path allocation-free).
    post_ns: Optional[int] = None
    post_src: int = ANY_SOURCE
    post_tag: int = ANY_TAG

    def __init__(self, event: Event, kind: str):
        self.event = event
        self.kind = kind

    def test(self) -> Optional[Message]:
        """Non-blocking completion check: the message if done, else None."""
        if self.event.triggered and self.event.ok:
            return self.event.value
        return None


class Communicator:
    """A set of ranks with a private matching context."""

    _ids = itertools.count()

    def __init__(self, cluster: "Cluster", tasks: Sequence["Task"]):
        self.cluster = cluster
        self.engine = cluster.engine
        self.tasks = list(tasks)
        self.cid = next(Communicator._ids)
        self._mailboxes: List[Store] = [
            Store(
                self.engine,
                name=f"comm{self.cid}.rank{r}.mbox",
                key_fn=_envelope_key,
            )
            for r in range(len(tasks))
        ]
        self._send_seq = 0
        # Fault awareness: populated only when the owning cluster has a
        # FaultInjector attached (see repro.faults).  On the clean path
        # ``faults`` is None, ``_failed`` stays empty, ``timeout_ns`` stays
        # None, and no branch below changes behaviour.
        self.faults = getattr(cluster, "faults", None)
        # Attribution capture: a pure recorder (repro.obs.attr) that the
        # hooks below feed.  None on clean runs — every hook site guards
        # with ``is not None`` so the clean path pays one attribute test.
        self.attr = getattr(cluster, "attr", None)
        #: record ``mpi.wait`` timeline spans for the trace exporter.
        self.trace_waits = bool(getattr(cluster, "trace_waits", False))
        # Per-node rank ordinal (rank → position among its node's ranks),
        # used to assign per-rank wait tracks in trace exports.
        per_node: Dict[str, int] = {}
        self._lrank: List[int] = []
        for t in tasks:
            n = t.node.name
            self._lrank.append(per_node.get(n, 0))
            per_node[n] = per_node.get(n, 0) + 1
        #: default bound for blocking waits (per-call override wins); None
        #: disables timeouts entirely (no timer events are ever posted).
        self.timeout_ns: Optional[int] = None
        self._failed: Dict[int, BaseException] = {}
        #: untriggered receive events, tracked (only under faults) so a
        #: detected rank failure can error them out.
        self._pending_recvs: List[Tuple[int, int, Event]] = []
        self.ranks: List[Rank] = [Rank(self, r, t) for r, t in enumerate(tasks)]
        if self.attr is not None:
            self.attr.on_comm(self)

    @property
    def size(self) -> int:
        return len(self.tasks)

    # -- wire interface ------------------------------------------------------
    def _inject(self, msg: Message) -> None:
        """Hand a message to the network; it lands in the destination's
        mailbox through the node gate."""
        src_node = self.tasks[msg.src].node
        dst_node = self.tasks[msg.dst].node
        mbox = self._mailboxes[msg.dst]
        faults = self.faults
        if faults is not None:
            # Link-fault hook: each message may be dropped (empty list),
            # duplicated, corrupted, or delayed.
            for m, extra_ns in faults.on_message(msg):
                self.cluster.network.transfer(
                    src_node, dst_node, m.nbytes,
                    (lambda mm=m: mbox.put(mm)),
                    extra_latency_ns=extra_ns,
                )
            return
        attr = self.attr
        if attr is not None:
            # Record when the message becomes *visible* (the callback runs
            # post node-gate, i.e. after any receiver-side SMM freeze).
            def deliver_observed(msg=msg, attr=attr, mbox=mbox) -> None:
                attr.on_arrival(msg.seq, self.engine.now)
                mbox.put(msg)

            self.cluster.network.transfer(
                src_node, dst_node, msg.nbytes, deliver_observed
            )
            return
        self.cluster.network.transfer(
            src_node, dst_node, msg.nbytes, lambda: mbox.put(msg)
        )

    def _match_async(self, dst: int, src: int, tag: int) -> Event:
        def pred(m: Message, src=src, tag=tag) -> bool:
            return (src == ANY_SOURCE or m.src == src) and (
                tag == ANY_TAG or m.tag == tag
            )

        # Fully-specified envelope (no wildcards): the predicate accepts
        # exactly the messages with this (src, tag), so the mailbox can
        # use its per-envelope index instead of scanning unexpected
        # messages posted by unrelated ranks/tags.
        key = (src, tag) if src != ANY_SOURCE and tag != ANY_TAG else None
        ev = self._mailboxes[dst].get_async(pred, key)
        if self._failed and not ev.triggered:
            # Receive posted *after* the source's failure was detected and
            # with no matching message already queued: fail it now (a
            # queued message from a since-dead rank is still delivered —
            # it made it onto the wire before the crash).
            if src == ANY_SOURCE:
                r = next(iter(self._failed))
                ev.fail(RankFailedError(
                    r, f"recv(ANY_SOURCE) on rank {dst}: peer rank {r} failed"))
            elif src in self._failed:
                ev.fail(RankFailedError(
                    src, f"recv on rank {dst}: peer rank {src} failed"))
        if self.faults is not None and not ev.triggered:
            self._pending_recvs.append((dst, src, ev))
        return ev

    # -- failure detection ----------------------------------------------------
    def mark_rank_failed(self, rank: int, exc: BaseException) -> None:
        """Record that ``rank`` died and propagate the failure into every
        pending receive that could be waiting on it (exact-source matches
        and ``ANY_SOURCE`` — the ULFM-style detector).  Collectives are
        built on these receives, so the failure cascades through their
        trees: every surviving rank's next wait on the dead peer errors
        out deterministically."""
        if rank in self._failed:
            return
        self._failed[rank] = exc
        pending, self._pending_recvs = self._pending_recvs, []
        for dst, src, ev in pending:
            if ev._ok is not None:
                continue  # completed (or already failed) — drop
            if src == rank or src == ANY_SOURCE:
                ev.fail(RankFailedError(
                    rank, f"recv on rank {dst}: peer rank {rank} failed"))
            else:
                self._pending_recvs.append((dst, src, ev))


class Rank:
    """Per-rank endpoint: the object an application body receives.

    All communication methods are generators — drive them with
    ``yield from`` inside the rank's task body.
    """

    def __init__(self, comm: Communicator, rank: int, task: "Task"):
        self.comm = comm
        self.rank = rank
        self.task = task
        self._coll_seq = 0
        self.sent_messages = 0
        self.sent_bytes = 0
        self.recv_messages = 0

    # -- convenience ------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm.size

    def now_ns(self) -> int:
        return self.task.now_ns()

    def compute(self, work_units: float, profile=None) -> Generator:
        """Application compute on this rank's task."""
        yield from self.task.compute(work_units, profile=profile)

    def _overhead(self, nbytes: int) -> float:
        spec = self.comm.cluster.network.spec
        return spec.sw_overhead_ops + spec.per_byte_ops * nbytes

    # -- point-to-point -----------------------------------------------------
    def send(self, dst: int, nbytes: int, payload: Any = None, tag: int = 0
             ) -> Generator:
        """Eager buffered send: local library cost, then fire and forget.

        Raises :class:`RankFailedError` when the destination is known dead
        (failure information is local — a rank learns of a peer's death
        through the communicator's detector, as under ULFM)."""
        if not (0 <= dst < self.size):
            raise ValueError(f"bad destination rank {dst}")
        failed = self.comm._failed
        if failed and dst in failed:
            raise RankFailedError(dst, f"send to failed rank {dst}")
        yield from self.task.compute(self._overhead(nbytes))
        self.comm._send_seq += 1
        msg = Message(self.rank, dst, tag, nbytes, payload, seq=self.comm._send_seq)
        attr = self.comm.attr
        if attr is not None:
            attr.on_send(msg, self.comm.engine.now)
        self.comm._inject(msg)
        self.sent_messages += 1
        self.sent_bytes += nbytes

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a receive; returns immediately with a Request."""
        ev = self.comm._match_async(self.rank, src, tag)
        req = Request(ev, "irecv")
        if self.comm.attr is not None or self.comm.trace_waits:
            req.post_ns = self.comm.engine.now
            req.post_src = src
            req.post_tag = tag
        return req

    def wait(self, request: Request, timeout_ns: Optional[int] = None
             ) -> Generator[Any, Any, Message]:
        """Block until the request completes; for receives, pay the
        receive-side library cost and return the message.

        ``timeout_ns`` (default: the communicator's ``timeout_ns``) bounds
        the wait in simulated time; on expiry :class:`MpiTimeoutError` is
        raised instead of blocking forever.  With both None — the clean
        path — no timer is ever posted and the event sequence is
        unchanged."""
        comm = self.comm
        observing = comm.attr is not None or comm.trace_waits
        t_begin = comm.engine.now if observing else 0
        if timeout_ns is None:
            timeout_ns = comm.timeout_ns
        ev = request.event
        if timeout_ns is None or ev.triggered:
            msg = yield from self.task.wait(ev)
        else:
            engine = comm.engine
            timer = Event(engine, name="mpi.wait.timeout")
            # Daemon: an unexpired timer must not keep the engine alive.
            entry = engine._post(int(timeout_ns), timer.succeed, (None,), True)
            idx, msg = yield from self.task.wait_any([ev, timer])
            if idx == 1:
                raise MpiTimeoutError(request.kind, int(timeout_ns))
            engine._cancel_entry(entry)
        if observing and request.kind == "irecv":
            t_end = comm.engine.now
            if comm.attr is not None:
                comm.attr.on_wait(self.rank, t_begin, t_end, request, msg)
            if comm.trace_waits and t_end > t_begin:
                node = self.task.node
                node.timeline.record(
                    t_end, "mpi.wait", node.name,
                    rank=self.rank, lrank=comm._lrank[self.rank],
                    begin_ns=t_begin, dur_ns=t_end - t_begin,
                    cls=("coll" if request.post_tag >= COLL_TAG_BASE
                         else "p2p"),
                    src=(msg.src if msg is not None else request.post_src),
                )
        if request.kind == "irecv" and msg is not None:
            if type(msg.payload) is CorruptedPayload:
                raise MpiCorruptionError(
                    f"rank {self.rank} received corrupted message "
                    f"(src={msg.src}, tag={msg.tag}, {msg.nbytes} bytes)")
            yield from self.task.compute(self._overhead(msg.nbytes))
            self.recv_messages += 1
        return msg

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout_ns: Optional[int] = None) -> Generator[Any, Any, Message]:
        """Blocking receive (``timeout_ns`` as in :meth:`wait`)."""
        req = self.irecv(src, tag)
        msg = yield from self.wait(req, timeout_ns=timeout_ns)
        return msg

    def sendrecv(
        self,
        dst: int,
        nbytes: int,
        payload: Any = None,
        src: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ) -> Generator[Any, Any, Message]:
        """Combined send+recv (deadlock-free: the send is eager)."""
        req = self.irecv(src, recv_tag)
        yield from self.send(dst, nbytes, payload, send_tag)
        msg = yield from self.wait(req)
        return msg

    # -- collectives (delegated; see collectives.py) -------------------------
    def _next_coll_tag(self) -> int:
        """Collective calls execute in program order on every rank (SPMD),
        so a per-rank sequence number yields matching tags cluster-wide."""
        self._coll_seq += 1
        return COLL_TAG_BASE + self._coll_seq

    def _coll(self, op: str, gen: Generator) -> Generator:
        """Drive one collective, marking the region for attribution so
        waits inside it carry the operation name.  Without a capture
        attached this is a plain ``yield from``."""
        attr = self.comm.attr
        if attr is None:
            result = yield from gen
            return result
        attr.on_coll_begin(self.rank, op)
        try:
            result = yield from gen
        finally:
            attr.on_coll_end(self.rank)
        return result

    def barrier(self) -> Generator:
        from repro.mpi.collectives import barrier

        yield from self._coll("barrier", barrier(self))

    def bcast(self, value: Any = None, root: int = 0, nbytes: int = 8) -> Generator:
        from repro.mpi.collectives import bcast

        result = yield from self._coll("bcast", bcast(self, value, root, nbytes))
        return result

    def reduce(self, value: Any, root: int = 0, nbytes: int = 8, op=None) -> Generator:
        from repro.mpi.collectives import reduce as _reduce

        result = yield from self._coll(
            "reduce", _reduce(self, value, root, nbytes, op))
        return result

    def allreduce(self, value: Any, nbytes: int = 8, op=None) -> Generator:
        from repro.mpi.collectives import allreduce

        result = yield from self._coll(
            "allreduce", allreduce(self, value, nbytes, op))
        return result

    def alltoall(self, per_pair_nbytes: int, values: Optional[List[Any]] = None
                 ) -> Generator:
        from repro.mpi.collectives import alltoall

        result = yield from self._coll(
            "alltoall", alltoall(self, per_pair_nbytes, values))
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Rank {self.rank}/{self.size} on {self.task.node.name}>"
