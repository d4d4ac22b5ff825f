"""The MPI study runner: the paper's Tables 1–5 as one function.

Table layout decoding (see DESIGN.md): the tables' left half places one
rank per node (row index = node count = rank count); the right half
places four ranks per node (row index = node count, so total ranks =
4 × nodes — e.g. Table 2's 4-per-node row 16 is 64 ranks, consistent with
its ~1/64 scaling of the single-rank time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.apps.nas.bt import bt_valid_ranks, make_bt_app
from repro.apps.nas.ep import make_ep_app
from repro.apps.nas.ft import ft_feasible, make_ft_app
from repro.apps.nas.params import (
    NAS_BT_PROFILE,
    NAS_EP_PROFILE,
    NAS_FT_PROFILE,
    NasClass,
)
from repro.core.smi import SmiDurations, SmiProfile
from repro.mpi.cluster import Cluster, ClusterSpec, run_mpi_job
from repro.mpi.network import NetworkSpec

__all__ = ["NasConfig", "run_nas_config", "DEFAULT_PHASE_SPREAD_NS"]

#: Driver-rollout phase stagger across nodes (see Cluster.enable_smi and
#: DESIGN.md §6) — exported so run manifests can record it.
DEFAULT_PHASE_SPREAD_NS = 400_000_000


@dataclass(frozen=True)
class NasConfig:
    """One cell family of the MPI tables."""

    bench: str            # "EP" | "BT" | "FT"
    cls: NasClass
    nodes: int            # the tables' row index
    ranks_per_node: int   # 1 or 4
    htt: bool = False

    @property
    def nranks(self) -> int:
        return self.nodes * self.ranks_per_node

    @property
    def label(self) -> str:
        h = " ht=1" if self.htt else ""
        return (
            f"{self.bench}.{self.cls.value} nodes={self.nodes} "
            f"rpn={self.ranks_per_node}{h}"
        )


_APPS = {
    "EP": (make_ep_app, NAS_EP_PROFILE),
    "BT": (make_bt_app, NAS_BT_PROFILE),
    "FT": (make_ft_app, NAS_FT_PROFILE),
}


def nas_config_feasible(cfg: NasConfig) -> bool:
    """Does this configuration run at all (the tables' "-" cells)?"""
    if cfg.bench == "BT" and not bt_valid_ranks(cfg.nranks):
        return False
    if cfg.bench == "FT" and not ft_feasible(cfg.cls, cfg.nranks, cfg.ranks_per_node):
        return False
    return True


def run_nas_config(
    cfg: NasConfig,
    smm: Union[int, SmiDurations] = 0,
    seed: int = 1,
    interval_jiffies: int = 1000,
    network: Optional[NetworkSpec] = None,
    phase_spread_ns: Optional[int] = DEFAULT_PHASE_SPREAD_NS,
    timeline=None,
    metrics=None,
    trace: bool = False,
    faults=None,
    mpi_timeout_s: Optional[float] = None,
    attr=None,
) -> Optional[float]:
    """Run one benchmark configuration under one SMI class.

    ``smm`` is the paper's column index (0/1/2, see
    :meth:`SmiProfile.by_index`) or any :class:`SmiDurations` profile,
    such as :attr:`SmiProfile.RIM`.

    Returns the benchmark's reported time in seconds (max over ranks of
    the timed region, as NPB reports), or ``None`` for infeasible
    configurations.  Raises if the run's algorithmic verification fails —
    the simulated collectives must deliver correct values even under
    noise.

    Observability hooks: pass a :class:`repro.simx.timeline.Timeline` as
    ``timeline`` to capture the run's ground-truth trace, a
    :class:`repro.obs.metrics.MetricsRegistry` as ``metrics`` to collect
    counters, and ``trace=True`` to additionally record network messages
    and per-CPU task placements (heavier; meant for the ``repro-smm
    trace`` exporter, not for table sweeps).

    Fault injection: pass a :class:`repro.faults.FaultInjector` as
    ``faults`` to arm its plan against the cluster before launch; a
    fatal fault then raises :class:`repro.mpi.errors.JobAbortedError`
    (see :func:`repro.mpi.cluster.run_mpi_job`).  ``mpi_timeout_s``
    overrides the injector's derived blocking-wait bound.

    Attribution: pass a :class:`repro.obs.attr.AttrCapture` as ``attr``
    to record per-rank waits, message lifecycles, and accounting for the
    post-run noise-attribution engine.  The capture is pure recording —
    the simulated event sequence is identical with and without it.
    """
    if not nas_config_feasible(cfg):
        return None
    make_app, profile = _APPS[cfg.bench]
    app = make_app(cfg.cls)
    spec = ClusterSpec(
        n_nodes=cfg.nodes,
        network=network if network is not None else NetworkSpec(),
        htt=cfg.htt,
    )
    cluster = Cluster(spec, seed=seed, timeline=timeline, metrics=metrics)
    if faults is not None:
        faults.attach(cluster)
    if attr is not None:
        attr.attach(cluster)
    if trace:
        cluster.network.trace = True
        cluster.trace_waits = True
        for node in cluster.nodes:
            node.scheduler.trace_placements = True
    cluster.enable_smi(
        smm if isinstance(smm, SmiDurations) else SmiProfile.by_index(smm),
        interval_jiffies=interval_jiffies,
        seed=seed,
        phase_spread_ns=phase_spread_ns,
    )
    result = run_mpi_job(
        cluster,
        app,
        nranks=cfg.nranks,
        ranks_per_node=cfg.ranks_per_node,
        profile=profile,
        name=cfg.label,
        mpi_timeout_s=mpi_timeout_s,
    )
    if attr is not None:
        attr.finalize(cluster, result)
    for r in result.rank_results:
        if not r.get("verified", False):
            raise AssertionError(f"verification failed for {cfg.label}: {r}")
    return result.elapsed_s
