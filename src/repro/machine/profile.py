"""Workload execution profiles.

A :class:`WorkloadProfile` tells the fluid CPU model how a task's
instruction stream interacts with the micro-architecture — the three
knobs the paper's workloads exercise:

``htt_yield``
    Combined throughput of a physical core when *both* HTT siblings are
    busy, in units of single-sibling throughput.  ``1.0`` means
    Hyper-Threading buys nothing (the paper's FP-intensive case, citing
    Leng et al. [4]); ``1.3`` means +30 % aggregate (typical mixed code);
    values < 1.0 model destructive cache interference between siblings
    (Cieslewicz [6]).

``working_set_bytes`` / ``base_miss_rate`` / ``mem_ref_fraction``
    Feed the cache model (:mod:`repro.machine.cache`): the fraction of
    operations that reference memory, the miss rate when the working set
    fits, and the occupancy pressure the task puts on shared caches.

The two Convolve configurations of §IV.B are expressed directly as
profiles: CacheFriendly (~1 % misses of ~20 M references) and
CacheUnfriendly (~70 % misses) — see :mod:`repro.apps.convolve`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = [
    "WorkloadProfile",
    "COMPUTE_BOUND",
    "MEMORY_BOUND",
    "OS_INTENSIVE",
]


@dataclass(frozen=True)
class WorkloadProfile:
    """Micro-architectural behaviour of a task's compute segments.

    Attributes
    ----------
    name:
        Label for traces and reports.
    htt_yield:
        Aggregate two-sibling throughput relative to one busy sibling
        (see module docstring).  Must be in ``(0, 2]``.
    working_set_bytes:
        Bytes the task actively touches (an ``int``); drives shared-cache
        pressure.
    base_miss_rate:
        Cache miss probability per memory reference when the working set
        fits in cache (``0..1``).
    mem_ref_fraction:
        Fraction of work units that are memory references (``0..1``).
    miss_penalty_ops:
        Cost of a miss that goes to DRAM, measured in work-unit times.
    hit2_penalty_ops:
        Cost of an L1 miss that hits a lower cache level.
    """

    name: str
    htt_yield: float = 1.25
    working_set_bytes: int = 1 << 20
    base_miss_rate: float = 0.01
    mem_ref_fraction: float = 0.25
    miss_penalty_ops: float = 60.0
    hit2_penalty_ops: float = 6.0
    #: Fraction of the occupancy-model miss inflation this workload
    #: actually feels (0..1).  Blocked/tiled kernels (NAS solvers) have
    #: short reuse distances and shrug off shared-cache pressure;
    #: pointer-chasing code feels all of it.  Applied by
    #: :meth:`repro.machine.cache.CacheHierarchy.contention`.
    cache_sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.htt_yield <= 2.0):
            raise ValueError(f"htt_yield out of range: {self.htt_yield}")
        if not (0.0 <= self.base_miss_rate <= 1.0):
            raise ValueError(f"base_miss_rate out of range: {self.base_miss_rate}")
        if not (0.0 <= self.mem_ref_fraction <= 1.0):
            raise ValueError(f"mem_ref_fraction out of range: {self.mem_ref_fraction}")
        ws = self.working_set_bytes
        if not isinstance(ws, int) or isinstance(ws, bool):
            # The rate pass sums working sets per CPU and per socket in
            # whatever order suits it; that is exact only for integers.
            raise ValueError(f"working_set_bytes must be an int: {ws!r}")
        if ws < 0:
            raise ValueError("working_set_bytes must be >= 0")
        if self.miss_penalty_ops < 0 or self.hit2_penalty_ops < 0:
            raise ValueError("penalties must be >= 0")
        if not (0.0 <= self.cache_sensitivity <= 1.0):
            raise ValueError(f"cache_sensitivity out of range: {self.cache_sensitivity}")
        # The rate pass keys the cache-efficiency memo on profiles: hash
        # the fields once here (the same tuple the generated __hash__
        # builds per call), not on every lookup.  Equality is unchanged.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a str hash differs between processes.
        return (type(self), self._fields())

    def cost_per_op(self, extra_dram: float = 0.0, extra_mid: float = 0.0) -> float:
        """Average cost of one work unit, in work-unit times.

        ``cost = 1 + mem_ref × ((base_miss + extra_dram)·miss_penalty
        + extra_mid·hit2_penalty)``

        ``base_miss_rate`` is the *solo* DRAM miss rate (what cachegrind
        measures when the task runs alone — the paper's CF ≈ 1 % and CU
        ≈ 70 % configurations plug in directly).  ``extra_dram`` /
        ``extra_mid`` are contention deltas computed by
        :class:`repro.machine.cache.CacheHierarchy`: additional misses
        that go all the way to DRAM (LLC pressure) vs. misses absorbed by
        the LLC (core-level cache pressure from an HTT sibling).
        """
        dram = min(1.0, self.base_miss_rate + max(0.0, extra_dram))
        mid = min(1.0, max(0.0, extra_mid))
        return 1.0 + self.mem_ref_fraction * (
            dram * self.miss_penalty_ops + mid * self.hit2_penalty_ops
        )

    def efficiency(self, extra_dram: float = 0.0, extra_mid: float = 0.0) -> float:
        """Throughput multiplier (``1/cost_per_op``)."""
        return 1.0 / self.cost_per_op(extra_dram, extra_mid)

    def solo_rate(self, base_hz: float) -> float:
        """Work units per second when running alone on one logical CPU of
        a machine with ``base_hz``.  Calibration uses this to convert the
        paper's wall times into work-unit demands."""
        return base_hz * self.efficiency()


# ---------------------------------------------------------------------------
# Canonical profiles used across experiments.
# ---------------------------------------------------------------------------

#: FP/compute-intensive kernel: saturates execution units, HTT buys nothing
#: (Leng et al. [4]; Saini et al. [5] for structured, cache-optimized codes).
COMPUTE_BOUND = WorkloadProfile(
    name="compute-bound",
    htt_yield=1.0,
    working_set_bytes=4 << 20,
    base_miss_rate=0.005,
    mem_ref_fraction=0.15,
)

#: Streaming / cache-thrashing kernel: stalls leave gaps, but when *both*
#: siblings thrash, cache interference eats the gain — the paper's
#: CacheUnfriendly Convolve "did not benefit greatly from HTT".
MEMORY_BOUND = WorkloadProfile(
    name="memory-bound",
    htt_yield=1.1,
    working_set_bytes=64 << 20,
    base_miss_rate=0.7,
    mem_ref_fraction=0.35,
)

#: Mixed OS/syscall-heavy work (UnixBench profile): latency gaps abound,
#: HTT shows clear gains (Figure 2 shows HTT benefit for UnixBench).
OS_INTENSIVE = WorkloadProfile(
    name="os-intensive",
    htt_yield=1.35,
    working_set_bytes=256 << 10,
    base_miss_rate=0.03,
    mem_ref_fraction=0.3,
)
