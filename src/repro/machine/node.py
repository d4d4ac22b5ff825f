"""A node: the composition point of the hardware model.

A :class:`Node` owns a topology, per-CPU executors, caches, clocks, the
SMM controller, and — crucially —
the **wake-up gate** that implements SMM's "all host software stops"
semantics for every process hosted on the node:

* Task processes are created with ``gate=node``.  Every resumption of such
  a process (a sleep expiring, a message arriving, an event triggering)
  goes through :meth:`Node.deliver`, which queues the wake-up while the
  node is frozen and flushes the queue in FIFO order at SMM exit.
* Compute segments cannot make progress during the freeze because every
  CPU's gross rate is 0 while ``frozen``.

Hardware-level processes (the SMM exit timer, the SMI source, in-flight
NIC transfers) are *not* gated — DMA and timers below the host keep
running during SMM, as on real machines; only their visibility to host
software is delayed.

Rates settle once per instant (DESIGN.md §3 "Performance").  A change
that moves rates — a placement, a freeze, a hotplug — calls
:meth:`Node.recompute` *before* it mutates: that syncs every executor
to *now* and marks the node unsettled.  A segment completion, which
fires inside an executor's sync, only marks it (:meth:`Node.unsettle`).
The rate pass itself, :meth:`Node._settle`, runs once, from the engine,
after the instant's last event and before the clock moves; it syncs,
assigns every busy CPU's rates from the final state and reschedules
each busy executor's timer in CPU-index order.  A zero-length window integrates nothing, so the
simulated numbers are those of a pass after every mutation; only the
tie order of same-nanosecond events follows the settle order, and far
fewer timers are pushed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.simx.engine import Engine
from repro.simx.timeline import Timeline
from repro.machine.cache import CacheHierarchy
from repro.machine.clock import Clock
from repro.machine.cpu import LogicalCpu
from repro.machine.smm import SmmController
from repro.machine.topology import MachineSpec, Topology

__all__ = ["Node"]


class Node:
    """One simulated machine."""

    def __init__(
        self,
        engine: Engine,
        spec: MachineSpec,
        name: str = "node0",
        timeline: Optional[Timeline] = None,
        boot_offset_ns: int = 0,
        metrics=None,
    ):
        self.engine = engine
        self.spec = spec
        self.name = name
        self.timeline = timeline if timeline is not None else Timeline()
        # Observability: instruments cached per node (None when disabled,
        # leaving the gate hot path with a single attribute check).
        self.metrics = metrics
        if metrics is not None:
            self._m_deferred = metrics.counter(
                "node.wakeups.deferred", "wake-ups queued while frozen in SMM")
            self._m_flush = metrics.histogram(
                "node.wakeups.flush_batch",
                "deferred wake-ups coalesced per SMM exit",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
            )
        else:
            self._m_deferred = None
            self._m_flush = None
        self.topology = Topology(spec)
        self.cache_hierarchy: CacheHierarchy = spec.hierarchy()
        self.clock = Clock(engine, tsc_hz=spec.base_hz, boot_offset_ns=boot_offset_ns)
        self.cpus: List[LogicalCpu] = [LogicalCpu(self, st) for st in self.topology.cpus]
        self.smm = SmmController(self)
        self.nic = None  # attached by repro.mpi.cluster when clustered
        self.scheduler = None  # attached by repro.sched (see repro.system)
        self._frozen = False
        self._failed = False
        self._hung = False
        self._deferred: List[Tuple[Callable[..., None], tuple]] = []
        self._unfreeze_listeners: List[Callable[[], None]] = []
        #: True from :meth:`unsettle` until :meth:`_settle` runs, within
        #: one instant; the executors read it as their ``owner``.
        self.unsettled = False
        # Busy-CPU set, maintained by executor membership callbacks and
        # kept in ascending CPU-index order: every rate pass (sync /
        # settle) walks exactly the CPUs that hold work, in the same
        # order the full-topology scans they replace visited them.  On a
        # 16-CPU node running one rank, that is 1 visit instead of 16 on
        # each of the hottest paths.
        self._busy: List[LogicalCpu] = []
        self.topology.add_listener(self._on_hotplug)

    # -- basic accessors -------------------------------------------------------
    def cpu(self, index: int) -> LogicalCpu:
        return self.cpus[index]

    @property
    def frozen(self) -> bool:
        """True while all cores are in System Management Mode."""
        return self._frozen

    @property
    def failed(self) -> bool:
        """True once :meth:`fail` has been called (permanent)."""
        return self._failed

    @property
    def hung(self) -> bool:
        """True once :meth:`hang` has been called (permanent)."""
        return self._hung

    @property
    def dead(self) -> bool:
        """True when the node can never again make host-software progress."""
        return self._failed or self._hung

    # -- rate bookkeeping --------------------------------------------------
    def _cpu_busy_changed(self, cpu: LogicalCpu, busy: bool) -> None:
        """Executor membership callback: maintain the busy-CPU list in
        CPU-index order."""
        busy_list = self._busy
        if busy:
            i = len(busy_list)
            idx = cpu.state.index
            while i > 0 and busy_list[i - 1].state.index > idx:
                i -= 1
            busy_list.insert(i, cpu)
        else:
            busy_list.remove(cpu)

    def sync(self) -> None:
        """Integrate all executors and the accounting up to *now* at the
        currently-assigned rates."""
        # Accounting windows are integrated by the executors' pre_sync
        # hooks.  Empty executors have nothing to integrate, and add() syncs
        # before admitting — their clocks cannot go stale.  Iterate a
        # snapshot: completions inside sync() shrink the busy list.
        busy = self._busy
        if not busy:
            return
        if len(busy) == 1:
            busy[0].executor.sync()
        else:
            for cpu in busy[:]:
                cpu.executor.sync()

    def unsettle(self) -> None:
        """Owe this instant's rate pass (:meth:`_settle`), which the
        engine runs once, after the instant's last event and before the
        clock moves.  Safe from inside an executor's completion callback:
        it neither syncs nor assigns rates."""
        if not self.unsettled:
            self.unsettled = True
            self.engine.defer_settle(self._settle)

    def recompute(self) -> None:
        """Sync now and owe this instant's rate pass.  Call it *before*
        any mutation that changes rates (placement, freeze, hotplug,
        degradation)."""
        self.sync()
        self.unsettle()

    def _settle(self) -> None:
        """The node's one rate pass of this instant: sync, assign every
        busy CPU's rates, then reschedule each busy executor's timer in
        CPU-index order.

        The sync integrates the windows of executors that a completion
        elsewhere on the node left behind (:meth:`unsettle` does not
        sync); a completion inside it only owes the pass being run.  One
        loop over the busy CPUs then computes the floats of
        :meth:`LogicalCpu.gross_hz` and :meth:`CacheHierarchy.efficiency`
        in their order, from working-set sums (``int``, so order-free)
        taken once per CPU and socket, straight into the rate columns.
        """
        self.sync()
        self.unsettled = False
        busy = self._busy
        if not busy:
            return
        ws: Dict[int, int] = {}
        socket_ws: Dict[object, int] = {}
        for cpu in busy:
            state = cpu.state
            total = 0
            for item in cpu.executor._items:
                total += item.meta.profile.working_set_bytes
            ws[state.index] = total
            if state.online:
                sock = state.core.socket
                socket_ws[sock] = socket_ws.get(sock, 0) + total
        cpus = self.cpus
        frozen = self._frozen
        base_hz = self.spec.base_hz
        hierarchy = self.cache_hierarchy
        eff_cache = hierarchy._eff_cache
        for cpu in busy:
            state = cpu.state
            ex = cpu.executor
            items = ex._items
            rate_s = ex._rate
            gross = 0.0
            if not frozen and state.online:
                gross = base_hz * cpu.degradation
                core_ws = ws[state.index]
                sib_state = state.sibling
                if sib_state is not None and sib_state.online:
                    sib_ws = ws.get(sib_state.index)
                    if sib_ws is not None:
                        # Both siblings busy: the mix's mean htt_yield.
                        core_ws += sib_ws
                        mix = items + cpus[sib_state.index].executor._items
                        gross = gross * (sum(
                            [it.meta.profile.htt_yield for it in mix])
                            / len(mix)) / 2.0
            if gross <= 0.0:
                rate_s[:] = [0.0] * len(items)
            else:
                share_hz = gross / len(items)
                sock_ws = socket_ws[state.core.socket]
                prev = None
                for i, item in enumerate(items):
                    profile = item.meta.profile
                    if profile is not prev:
                        prev = profile
                        eff = eff_cache.get((profile, core_ws, sock_ws))
                        if eff is None:
                            eff = hierarchy.efficiencies(
                                (profile,), core_ws, sock_ws)[0]
                        rate = share_hz * eff / 1e9
                    rate_s[i] = rate
        for cpu in busy:
            cpu.executor._reschedule()

    # -- SMM freeze protocol ----------------------------------------------------
    def freeze(self) -> None:
        """Called by the SMM controller at SMI entry."""
        self.recompute()
        self._frozen = True

    def unfreeze(self) -> None:
        """Called by the SMM controller at SMM exit: resume execution,
        flush deferred wake-ups (FIFO), notify listeners (scheduler
        re-balance, detectors)."""
        if self._hung or self._failed:
            return  # a dead node never thaws — not even at SMM exit
        self.recompute()
        self._frozen = False
        deferred, self._deferred = self._deferred, []
        if self._m_flush is not None:
            self._m_flush.observe(len(deferred))
        engine = self.engine
        for fn, args in deferred:
            engine._post(0, fn, args, False)
        for fn in self._unfreeze_listeners:
            fn()

    def add_unfreeze_listener(self, fn: Callable[[], None]) -> None:
        self._unfreeze_listeners.append(fn)

    # -- fault transitions ------------------------------------------------------
    def hang(self, reason: str = "injected hang") -> None:
        """Permanent SMM-style freeze: the node enters the frozen state and
        never exits.  Task processes stay alive but make no progress;
        wake-ups defer forever.  Used to model a firmware hang (an SMI
        handler that never returns).  Idempotent; a no-op on a failed node.
        """
        if self._failed or self._hung:
            return
        self._hung = True
        if not self._frozen:
            self.freeze()

    def fail(self, reason: str = "injected failure") -> None:
        """Hard node failure (crash / power loss) at the current instant.

        Work is accounted up to *now*, every resident compute segment is
        evicted, and every task process hosted here is aborted with
        :class:`~repro.simx.errors.NodeFailedError` — the error path, so
        joiners (and the MPI completion callbacks) observe a *failed*
        rank, not a finished one.  Idempotent.
        """
        if self._failed:
            return
        from repro.simx.errors import NodeFailedError

        self.recompute()
        self._failed = True
        self._frozen = True  # gross_hz == 0 for anything left behind
        for cpu in self.cpus:
            for item in list(cpu.executor.items):
                cpu.executor.remove(item)
        self._deferred.clear()
        if self.timeline.enabled:
            self.timeline.record(self.engine.now, "node.fail", self.name,
                                 reason=reason)
        if self.scheduler is not None:
            exc_reason = f"node {self.name} failed: {reason}"
            for task in self.scheduler.tasks:
                task.cpu = None
                proc = task.proc
                if proc is not None and proc.alive:
                    proc.abort(NodeFailedError(exc_reason))

    # -- the wake-up gate (simx Process gate protocol) ------------------------
    def deliver(self, fn: Callable[..., None], args: tuple = ()) -> None:
        """Deliver the wake-up ``fn(*args)`` to host software: immediate
        (scheduled at +0) when running, deferred to SMM exit when frozen.
        Passing the arguments separately lets callers hand over a bound
        method and its arguments instead of allocating a closure per
        wake-up (a process resumes with ``(proc._step, (value, exc))``).
        A failed node drops wake-ups entirely (dead silicon wakes
        nothing); a hung node defers them forever (the queue that would
        flush at an SMM exit that never comes)."""
        if self._frozen:
            if self._failed:
                return
            self._deferred.append((fn, args))
            if self._m_deferred is not None:
                self._m_deferred.value += 1
        else:
            self.engine._post(0, fn, args, False)

    # -- hotplug ----------------------------------------------------------
    def _on_hotplug(self, cpu_state) -> None:
        cpu = self.cpus[cpu_state.index]
        if not cpu_state.online and cpu.busy:
            raise RuntimeError(
                f"cannot offline cpu{cpu_state.index} with work resident; "
                "migrate tasks first (the scheduler does this via sysfs.offline)"
            )
        self.recompute()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Node {self.name} spec={self.spec.name} online={self.topology.n_online} "
            f"frozen={self._frozen}>"
        )
