"""Cluster construction and the ``mpirun`` launcher.

Builds the paper's experimental platform: N Wyeast nodes (§III.A) on one
interconnect, each with its own scheduler, SMM controller, and —
critically — its own *independent* SMI source phase when noise is
enabled (DESIGN.md §5.3).

Rank placement follows mpirun's default block placement: with ``r`` ranks
per node, ranks ``0..r-1`` land on node 0, ``r..2r-1`` on node 1, and so
on — matching the paper's "1 or 4 MPI ranks per node" configurations
(where the tables' row index for the 4-per-node half counts *nodes*, so
row 16 means 64 total ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.simx.engine import Engine
from repro.simx.timeline import Timeline
from repro.machine.node import Node
from repro.machine.profile import WorkloadProfile
from repro.machine.topology import MachineSpec, WYEAST_SPEC
from repro.mpi.comm import Communicator, Rank
from repro.mpi.network import Network, NetworkSpec
from repro.core.smi import SmiDurations, SmiSource
from repro.system import make_node

__all__ = ["ClusterSpec", "Cluster", "JobResult", "run_mpi_job"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the cluster."""

    n_nodes: int = 16
    machine: MachineSpec = WYEAST_SPEC
    network: NetworkSpec = field(default_factory=NetworkSpec)
    htt: bool = False  # the MPI study ran HTT "disabled or enabled ... on all nodes"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")


class Cluster:
    """A fresh engine + N wired nodes + interconnect."""

    def __init__(self, spec: ClusterSpec, seed: int = 0,
                 timeline: Optional[Timeline] = None, metrics=None):
        self.spec = spec
        self.engine = Engine(metrics=metrics)
        self.timeline = timeline if timeline is not None else Timeline()
        self.metrics = metrics
        self.network = Network(self.engine, spec.network, metrics=metrics)
        self.nodes: List[Node] = []
        self.smi_sources: List[SmiSource] = []
        #: a repro.faults.FaultInjector once attached; None on clean runs.
        self.faults = None
        #: a repro.obs.attr.AttrCapture once attached; None on clean runs.
        self.attr = None
        #: when True, communicators record ``mpi.wait`` timeline records
        #: (blocked receive spans) for the trace exporter.
        self.trace_waits = False
        for i in range(spec.n_nodes):
            node = make_node(
                self.engine,
                spec.machine,
                name=f"node{i}",
                timeline=self.timeline,
                seed=seed * 1009 + i,
                # A distinct boot offset per node so TSC values differ.
                boot_offset_ns=i * 37_000_000_000,
                metrics=metrics,
            )
            if not spec.htt:
                node.topology.set_htt(False)
            self.network.attach(node)
            self.nodes.append(node)

    def enable_smi(
        self,
        durations: Optional[SmiDurations],
        interval_jiffies: int = 1000,
        seed: int = 0,
        phase_spread_ns: Optional[int] = 400_000_000,
    ) -> None:
        """Attach one SMI source per node.  ``durations=None`` (SMM 0)
        attaches nothing.

        ``phase_spread_ns`` bounds the initial phase stagger across nodes.
        The paper loads the driver on every node at experiment start
        (a parallel-ssh-style rollout), so phases are *clustered*, not
        uniform over the whole interval: the default 400 ms spread is the
        value that reproduces the paper's amplification factors for
        tightly-synchronized codes (see EXPERIMENTS.md and the
        phase-alignment ablation in ``tests/integration/test_ablations.py``).
        Pass ``None`` for fully independent phases (uniform over the
        interval)."""
        if durations is None:
            return
        import random as _random

        rng = _random.Random(seed * 104729 + 17)
        interval_ns = interval_jiffies * 1_000_000
        for i, node in enumerate(self.nodes):
            if phase_spread_ns is None:
                phase = None  # SmiSource draws uniform over the interval
            else:
                phase = rng.randint(0, max(1, min(phase_spread_ns, interval_ns) - 1))
            self.smi_sources.append(
                SmiSource(
                    node, durations, interval_jiffies,
                    seed=seed * 7907 + i * 13, phase_ns=phase,
                )
            )

    def total_smm_time_s(self) -> float:
        return sum(n.smm.stats.total_ns for n in self.nodes) / 1e9


@dataclass
class JobResult:
    """Outcome of one MPI job."""

    nranks: int
    ranks_per_node: int
    #: value returned by each rank's body (NAS apps return their timed
    #: region in seconds).
    rank_results: List[object]
    #: job wall time: from launch to last rank exit (seconds).
    wall_s: float
    #: per-rank reported elapsed (populated when bodies return floats).
    elapsed_s: Optional[float] = None
    stats: Dict[str, float] = field(default_factory=dict)


def run_mpi_job(
    cluster: Cluster,
    app: Callable[[Rank], object],
    nranks: int,
    ranks_per_node: int = 1,
    profile: Optional[WorkloadProfile] = None,
    name: str = "job",
    limit_s: float = 50_000.0,
    mpi_timeout_s: Optional[float] = None,
) -> JobResult:
    """Launch ``nranks`` instances of ``app`` and run the engine until all
    complete.  ``app(rank)`` must be a generator function (the rank body);
    whatever it returns lands in :attr:`JobResult.rank_results`.

    When the cluster has a :class:`repro.faults.FaultInjector` attached,
    blocking MPI waits are bounded by ``mpi_timeout_s`` (default: the
    injector's derived timeout), rank failures propagate through the
    communicator's detector, and an abnormal end raises
    :class:`repro.mpi.errors.JobAbortedError` instead of hanging or
    silently dropping dead ranks.  Without an injector this function is
    unchanged from the clean path.
    """
    from repro.machine.profile import COMPUTE_BOUND

    if profile is None:
        profile = COMPUTE_BOUND
    needed_nodes = (nranks + ranks_per_node - 1) // ranks_per_node
    if needed_nodes > len(cluster.nodes):
        raise ValueError(
            f"{nranks} ranks at {ranks_per_node}/node need {needed_nodes} nodes; "
            f"cluster has {len(cluster.nodes)}"
        )
    engine = cluster.engine
    t_launch = engine.now
    tasks = []
    for r in range(nranks):
        node = cluster.nodes[r // ranks_per_node]
        tasks.append(node.scheduler.create_task(f"{name}.r{r}", profile))
    comm = Communicator(cluster, tasks)
    done = engine.event(name=f"{name}.done")
    remaining = {"n": nranks}
    faults = cluster.faults

    if faults is None:
        def on_rank_done(_ev) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0 and not done.triggered:
                done.succeed()

        callbacks = [on_rank_done] * nranks
    else:
        if mpi_timeout_s is None:
            mpi_timeout_s = faults.mpi_timeout_s
        if mpi_timeout_s is not None:
            comm.timeout_ns = int(mpi_timeout_s * 1e9)
        failed: Dict[int, BaseException] = {}

        def check_done() -> None:
            # The job is over when every rank either finished or can never
            # finish: a rank whose node is dead (crashed or permanently
            # hung) is stuck forever, and waiting on it would run the
            # engine to its simulated-time limit for nothing.
            if done.triggered or remaining["n"] == 0:
                if not done.triggered:
                    done.succeed()
                return
            for r, t in enumerate(tasks):
                p = t.proc
                if p is not None and p.alive and not t.node.dead:
                    return
            done.succeed()

        def make_cb(r: int):
            def cb(ev) -> None:
                remaining["n"] -= 1
                if not ev.ok:
                    failed[r] = ev.exception
                    comm.mark_rank_failed(r, ev.exception)
                check_done()
            return cb

        callbacks = [make_cb(r) for r in range(nranks)]

    for r, task in enumerate(tasks):
        node = cluster.nodes[r // ranks_per_node]
        node.scheduler.start(task, app(comm.ranks[r]))
        task.proc.done_event.add_callback(callbacks[r])

    if faults is not None:
        # Daemon watchdog: catches the corner where *no* completion
        # callback can ever fire (every unfinished rank sits on a dead
        # node) without running the engine to its simulated-time limit.
        watchdog_ns = comm.timeout_ns or int(60e9)

        def watchdog() -> None:
            if done.triggered:
                return
            check_done()
            if not done.triggered:
                engine.schedule(watchdog_ns, watchdog, daemon=True)

        engine.schedule(watchdog_ns, watchdog, daemon=True)
    engine.run_until(done, limit_ns=int(limit_s * 1e9))
    if faults is not None:
        from repro.mpi.errors import JobAbortedError

        stuck = [
            r for r, t in enumerate(tasks)
            if t.proc is not None and t.proc.alive
        ]
        if failed or stuck or not done.triggered:
            raise JobAbortedError(
                name,
                failed={r: f"{type(e).__name__}: {e}" for r, e in failed.items()},
                hung=stuck,
                fault_events=list(faults.events),
            )
    elif not done.triggered:
        raise RuntimeError(
            f"MPI job {name!r} did not finish within {limit_s} simulated seconds"
        )
    results = [t.proc.result for t in tasks]
    elapsed = None
    if results and all(isinstance(v, (int, float)) for v in results):
        elapsed = max(float(v) for v in results)
    elif results and all(isinstance(v, dict) and "elapsed_s" in v for v in results):
        elapsed = max(float(v["elapsed_s"]) for v in results)
    return JobResult(
        nranks=nranks,
        ranks_per_node=ranks_per_node,
        rank_results=results,
        wall_s=(engine.now - t_launch) / 1e9,
        elapsed_s=elapsed,
        stats={
            "messages": cluster.network.messages,
            "bytes": cluster.network.bytes_moved,
            "smm_time_s": cluster.total_smm_time_s(),
        },
    )
