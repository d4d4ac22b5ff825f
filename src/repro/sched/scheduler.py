"""A Linux-flavoured scheduler over the fluid CPU model.

Placement policy (mirrors CFS + the Nehalem-era sched domains):

1. Prefer an online CPU on an *idle physical core* (spreads across cores
   before using HTT siblings — ``SD_SHARE_CPUCAPACITY`` behaviour).
2. Then an idle logical CPU whose sibling is busy.
3. Then the least-loaded CPU (processor sharing absorbs oversubscription,
   e.g. Convolve's 24 threads on 1–8 logical CPUs).

Load balancing:

* **Idle balancing** — whenever some CPU holds ≥ 2 segments while another
  online CPU is idle, a near-immediate (2 µs) rebalance pulls work over.
  Real kernels do this on idle entry; it is what makes *stacked*
  misplacements self-heal fast.
* **Periodic balancing** — a 250 ms tick re-derives the greedy placement.
  The tick is a *gated* process: during SMM it cannot run, exactly like
  the real softirq.

Post-SMM wake-up perturbation (the paper's HTT × long-SMI variance,
DESIGN.md §5.6): at SMM exit every runnable task wakes at once; with
probability proportional to the freeze length, one task is re-placed onto
the **busy sibling** of an occupied physical core (a waker-affinity
mistake).  Crucially this mis-placement leaves every logical CPU with at
most one task, so idle balancing does *not* correct it — only the
periodic balancer does, up to 250 ms later.  With HTT disabled there are
no siblings and the mechanism vanishes, reproducing the paper's
observation that the anomaly appears only with HTT and only for long
SMIs (Tables 4–5).
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional, TYPE_CHECKING

from repro.simx.engine import Delay
from repro.simx.rate import WorkItem
from repro.machine.profile import WorkloadProfile
from repro.sched.task import Task, TaskState
from repro.sched.accounting import AccountingReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import LogicalCpu
    from repro.machine.node import Node

__all__ = ["Scheduler"]

#: Periodic load-balance interval (Linux rebalances every few hundred ms
#: at this machine size).
BALANCE_PERIOD_NS = 250_000_000

#: Latency of an idle-balance pull once a CPU goes idle next to a stacked one.
IDLE_BALANCE_NS = 2_000

#: Freeze length at which a post-SMM wake-up misplacement becomes
#: probability 1 (shorter freezes scale linearly: a 2 ms short SMI gives
#: p ≈ 0.7 %, a 105 ms long SMI p ≈ 35 %).
MISPLACE_SATURATION_NS = 300_000_000


class Scheduler:
    """Per-node scheduler.  Construct via :func:`repro.system.make_node`."""

    def __init__(self, node: "Node", seed: int = 0, enable_balancer: bool = True,
                 misplace_saturation_ns: int = MISPLACE_SATURATION_NS):
        self.node = node
        self.engine = node.engine
        self.rng = random.Random(seed)
        self.tasks: List[Task] = []
        self.accounting = AccountingReport(self)
        self.misplace_saturation_ns = misplace_saturation_ns
        self.misplacements = 0
        self.rebalances = 0
        self._rebalance_pending = False
        #: When set, each compute-segment placement/completion is written
        #: to the node timeline (task.place / task.done) so the trace
        #: exporter can build per-CPU tracks.  Off by default: table runs
        #: would otherwise accumulate one record per segment.
        self.trace_placements = False
        m = node.metrics
        if m is not None:
            self._m_placed = m.counter(
                "sched.segments_placed", "compute segments placed on a CPU")
            self._m_rebalances = m.counter("sched.rebalances")
            self._m_misplacements = m.counter(
                "sched.misplacements", "post-SMM waker-affinity mistakes")
            self._m_runnable = m.gauge(
                "sched.runnable", "segments resident across CPUs")
        else:
            self._m_placed = None
            self._m_rebalances = None
            self._m_misplacements = None
            self._m_runnable = None
        node.scheduler = self
        node.add_unfreeze_listener(self._on_smm_exit)
        for cpu in node.cpus:
            cpu.executor.on_complete = self._segment_complete
            cpu.executor.pre_sync = self._make_account_hook(cpu)
        if enable_balancer:
            # Daemon: perpetual kernel work must not keep the engine alive.
            self._balancer_proc = self.engine.process(
                self._periodic_balancer(), name=f"{node.name}.balancer",
                gate=node, daemon=True,
            )

    # -- task lifecycle ----------------------------------------------------
    def create_task(
        self, name: str, profile: WorkloadProfile, affinity=None
    ) -> Task:
        """Create a task without starting it (two-phase startup lets the
        MPI launcher build a communicator over all rank tasks first)."""
        task = Task(self.node, self, name, profile, affinity)
        self.tasks.append(task)
        return task

    def start(self, task: Task, body) -> Task:
        """Start a created task.  ``body`` is the workload generator
        (already instantiated, e.g. ``app(rank_ctx)``)."""
        if task.proc is not None:
            raise RuntimeError(f"task {task.name} already started")
        task.started_ns = self.engine.now

        def wrapper():
            try:
                result = yield from body
            finally:
                task.state = TaskState.DONE
                task.finished_ns = self.engine.now
            return result

        task.proc = self.engine.process(wrapper(), name=task.name, gate=self.node)
        return task

    def spawn(
        self,
        body_factory,
        name: str,
        profile: WorkloadProfile,
        affinity=None,
    ) -> Task:
        """Create a task and start its process.  ``body_factory(task)``
        must return a generator (the workload body)."""
        task = self.create_task(name, profile, affinity)
        return self.start(task, body_factory(task))

    # -- placement ----------------------------------------------------------
    def start_segment(self, task: Task, item: WorkItem) -> None:
        """Place a new compute segment (called from Task.compute).

        Lone-segment fast path: on a running, settled node with no busy
        CPU, an unpinned segment lands on the first online CPU (what
        :meth:`_pick_cpu` returns there) alone, so its rate is
        :meth:`LogicalCpu.solo_rate` and :meth:`RateExecutor.add` can
        admit it at that rate and push its timer at once: the settle
        pass the general path owes would assign the same rate and push
        the same timer."""
        cpu = self._pick_cpu(task)
        if cpu is None:
            raise RuntimeError(
                f"no online CPU satisfies affinity {task.affinity} on {self.node.name}"
            )
        node = self.node
        if (task.affinity is None and not node._busy and not node._frozen
                and not node.unsettled):
            cpu.executor.add(item, cpu.solo_rate(task.profile))
        else:
            node.recompute()
            cpu.add_segment(item)
        task.cpu = cpu
        task.state = TaskState.RUNNING
        if self._m_placed is not None:
            self._m_placed.value += 1
            self._m_runnable.inc()
        if self.trace_placements:
            self.node.timeline.record(
                self.engine.now, "task.place", self.node.name,
                task=task.name, cpu=cpu.index,
            )

    def _eligible_cpus(self, task: Task) -> List["LogicalCpu"]:
        return [
            c
            for c in self.node.cpus
            if c.state.online and (task.affinity is None or c.index in task.affinity)
        ]

    def _pick_cpu(self, task: Task) -> Optional["LogicalCpu"]:
        affinity = task.affinity
        cpus = self.node.cpus
        if affinity is None and not self.node._busy:
            # Whole node idle (the steady state of one-rank-per-node
            # sweeps, where this runs once per compute segment): every
            # candidate scores (0, 0, index) — the minimum is simply the
            # first online CPU, no 16-way key scan needed.
            for c in cpus:
                if c.state.online:
                    return c
            return None
        best = None
        best_key = None
        for c in cpus:
            state = c.state
            if not state.online:
                continue
            if affinity is not None and state.index not in affinity:
                continue
            sibling = state.sibling
            sib_busy = (
                sibling is not None
                and sibling.online
                and len(cpus[sibling.index].executor)
            )
            # (my load, sibling busy, index) — spread across physical
            # cores first, deterministic tie-break by cpu index.
            key = (len(c.executor), 1 if sib_busy else 0, state.index)
            if best_key is None or key < best_key:
                best, best_key = c, key
        return best

    def _segment_complete(self, item: WorkItem) -> None:
        task: Task = item.meta
        if self._m_runnable is not None:
            self._m_runnable.dec()
        if self.trace_placements:
            self.node.timeline.record(
                self.engine.now, "task.done", self.node.name, task=task.name,
            )
        task.cpu = None
        task.state = TaskState.BLOCKED
        # Survivors on this CPU (and HTT siblings) now deserve a larger
        # share: owe the node's settle pass, which syncs the other CPUs
        # and assigns rates once this instant's events have run.  If the
        # departure left the whole node idle there is nothing to
        # recompute: the executor already evicted the item, so _busy is
        # current.
        node = self.node
        if node._busy:
            node.unsettle()
            # The departure may also have left an imbalance (this CPU
            # idle while a neighbour is stacked) — idle balance.
            self._maybe_idle_balance()

    # -- accounting hook -----------------------------------------------------
    def _make_account_hook(self, cpu: "LogicalCpu"):
        node = self.node
        # The executor's item list is mutated in place, never replaced.
        items = cpu.executor.items

        def hook(dt_ns: int) -> None:
            # The kernel charges each resident its share of the window.
            share = dt_ns / len(items)  # sync skips empty executors
            if node._frozen:
                for item in items:
                    acct = item.meta.acct
                    acct.kernel_ns += share
                    acct.stolen_ns += share
            else:
                for item in items:
                    acct = item.meta.acct
                    acct.kernel_ns += share
                    acct.true_ns += share

        return hook

    # -- balancing -------------------------------------------------------------
    def _periodic_balancer(self) -> Generator:
        while True:
            yield Delay(BALANCE_PERIOD_NS)
            self.rebalance()

    def _maybe_idle_balance(self) -> None:
        if self._rebalance_pending:
            return
        # A busy CPU is never offline (offlining with work resident
        # raises), so "some online CPU is idle" is a pure count check
        # and "some CPU is stacked" is a walk of the busy list only.
        node = self.node
        busy = node._busy
        stacked = False
        for c in busy:
            if len(c.executor) >= 2:
                stacked = True
                break
        if stacked and node.topology.n_online > len(busy):
            self._rebalance_pending = True
            self.engine.schedule(IDLE_BALANCE_NS, self._deferred_rebalance)

    def _deferred_rebalance(self) -> None:
        self._rebalance_pending = False
        if self.node.frozen:
            # Can't balance inside SMM; the exit path rebalances anyway.
            return
        self.rebalance()

    def rebalance(self) -> None:
        """Re-derive the greedy placement for all resident segments."""
        self.rebalances += 1
        if self._m_rebalances is not None:
            self._m_rebalances.value += 1
        items: List[WorkItem] = []
        for cpu in self.node._busy:
            items.extend(cpu.executor.items)
        if not items:
            return
        # Deterministic order: by task id.
        items.sort(key=lambda it: it.meta.tid)
        node = self.node
        node.recompute()
        if self._placement_is_greedy(items):
            # Removing and re-adding every segment would rebuild this
            # exact placement: leave it, and let the settle pass reassign
            # the same rates.
            return
        for item in items:
            item.meta.cpu.remove_segment(item)
            item.meta.cpu = None
        for item in items:
            task = item.meta
            cpu = self._pick_cpu(task)
            cpu.add_segment(item)
            task.cpu = cpu

    def _placement_is_greedy(self, items: List[WorkItem]) -> bool:
        """True if re-placing ``items`` (tid order) one by one with
        :meth:`_pick_cpu` onto emptied CPUs would put every item on the
        CPU and in the executor slot it occupies now.  Replays the greedy
        pass on virtual per-CPU loads, with the same ``(load, sibling
        busy, index)`` key and the same affinity and online filters."""
        cpus = self.node.cpus
        # (index, online sibling's index or None) of each online CPU.
        online = []
        for c in cpus:
            state = c.state
            if state.online:
                sib = state.sibling
                online.append((state.index, sib.index
                               if sib is not None and sib.online else None))
        load = [0] * len(cpus)
        for item in items:
            affinity = item.meta.affinity
            best = -1
            best_key = None
            for index, sib in online:
                if affinity is not None and index not in affinity:
                    continue
                key = (load[index], 1 if sib is not None and load[sib] else 0,
                       index)
                if best_key is None or key < best_key:
                    best, best_key = index, key
            if best < 0 or cpus[best].executor._index.get(item) != load[best]:
                return False
            load[best] += 1
        return True

    # -- post-SMM wake-up perturbation ---------------------------------------
    def _on_smm_exit(self) -> None:
        durations = self.node.smm.stats.durations_ns
        freeze_ns = durations[-1] if durations else 0
        p = min(1.0, freeze_ns / self.misplace_saturation_ns)
        if self.rng.random() < p:
            self._misplace_one()

    def _misplace_one(self) -> None:
        """Move one running task onto the idle HTT sibling of a busy core
        (a waker-affinity mistake during the post-SMM thundering herd)."""
        victims = [
            t for t in self.tasks if t.state is TaskState.RUNNING and t.cpu is not None
        ]
        if not victims:
            return
        # Candidate targets: online idle CPUs whose sibling is busy with a
        # task other than the victim.
        task = self.rng.choice(sorted(victims, key=lambda t: t.tid))
        targets = []
        for c in self.node.cpus:
            if not c.state.online or c.busy:
                continue
            sib = c.state.sibling
            if sib is None or not sib.online:
                continue
            sib_cpu = self.node.cpu(sib.index)
            if sib_cpu.busy and sib_cpu is not task.cpu:
                if task.affinity is not None and c.index not in task.affinity:
                    continue
                targets.append(c)
        if not targets:
            return  # HTT off (or no idle siblings): mechanism vanishes.
        target = self.rng.choice(targets)
        item = task.current_item
        if item is None:
            return
        self.node.recompute()
        task.cpu.remove_segment(item)
        target.add_segment(item)
        task.cpu = target
        self.misplacements += 1
        if self._m_misplacements is not None:
            self._m_misplacements.value += 1
        self.node.timeline.record(
            self.engine.now, "sched.misplace", self.node.name,
            task=task.name, cpu=target.index,
        )

    # -- queries -----------------------------------------------------------
    def evacuate(self, cpu_index: int) -> None:
        """Migrate all segments off a CPU (prelude to offlining it)."""
        cpu = self.node.cpu(cpu_index)
        items = list(cpu.executor.items)
        if not items:
            return
        self.node.recompute()
        for item in items:
            cpu.remove_segment(item)
        for item in items:
            task = item.meta
            target = None
            for c in self._eligible_cpus(task):
                if c.index == cpu_index:
                    continue
                if target is None or c.n_tasks < target.n_tasks:
                    target = c
            if target is None:
                raise RuntimeError("nowhere to evacuate task " + task.name)
            target.add_segment(item)
            task.cpu = target
