"""CPU topology: sockets, physical cores, logical CPUs, and hotplug.

Reproduces the experimental control used in §IV.A of the paper:

    "To vary the logical threads per core, we used the Linux *sysfs*
    interface to selectively offline specific logical cores ...  We tested
    1–4 logical processor cores with all HTT siblings offlined, then
    selectively onlined the HTT siblings to test 5–8 logical processor
    cores."

:meth:`Topology.set_logical_cpus` implements exactly that onlining order:
``k <= cores`` onlines one sibling on each of the first ``k`` physical
cores (similar to HTT disabled); ``k > cores`` additionally onlines
``k - cores`` HTT siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.machine.cache import CacheHierarchy, CacheSpec, nehalem_hierarchy, paper_r410_hierarchy

__all__ = ["MachineSpec", "LogicalCpuState", "PhysicalCore", "Topology", "WYEAST_SPEC", "R410_SPEC"]

#: Memory the OS and runtime keep for themselves on the paper's nodes.
#: FT's feasibility check fits its per-node footprint into the rest
#: (:func:`repro.apps.nas.ft.ft_feasible`).
OS_RESERVED_BYTES = 2 << 30


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one node's hardware."""

    name: str
    sockets: int
    cores_per_socket: int
    threads_per_core: int
    base_hz: float  # work units (useful ops) per second per logical cpu at efficiency 1
    memory_bytes: int
    cache_levels: Sequence[CacheSpec] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("need at least one socket and core")
        if self.threads_per_core not in (1, 2):
            raise ValueError("threads_per_core must be 1 or 2 (HTT)")
        if self.base_hz <= 0:
            raise ValueError("base_hz must be positive")

    @property
    def n_physical_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def n_logical_cpus(self) -> int:
        return self.n_physical_cores * self.threads_per_core

    def hierarchy(self) -> CacheHierarchy:
        if self.cache_levels:
            return CacheHierarchy(self.cache_levels)
        return nehalem_hierarchy()


class LogicalCpuState:
    """Identity + hotplug state of one logical CPU.

    The *execution* model lives in :class:`repro.machine.cpu.LogicalCpu`;
    this class is the pure-topology view so topology logic is testable
    without an engine.
    """

    __slots__ = ("index", "core", "thread_slot", "online")

    def __init__(self, index: int, core: "PhysicalCore", thread_slot: int):
        self.index = index
        self.core = core
        self.thread_slot = thread_slot  # 0 = primary, 1 = HTT sibling
        self.online = True

    @property
    def sibling(self) -> Optional["LogicalCpuState"]:
        """The other logical CPU on the same physical core (None if SMT=1)."""
        for s in self.core.threads:
            if s is not self:
                return s
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<cpu{self.index} core{self.core.index} slot{self.thread_slot} {'on' if self.online else 'off'}>"


class PhysicalCore:
    """A physical core holding one or two logical CPUs (HTT siblings)."""

    __slots__ = ("index", "socket", "threads")

    def __init__(self, index: int, socket: int):
        self.index = index
        self.socket = socket
        self.threads: List[LogicalCpuState] = []



class Topology:
    """All cores/CPUs of a node with Linux-style hotplug semantics.

    CPU numbering follows Linux on Nehalem: logical CPUs 0..C-1 are the
    first siblings of cores 0..C-1, and CPUs C..2C-1 are their HTT
    siblings (cpu ``i`` and ``i+C`` share a core).  CPU 0 cannot be
    offlined (as on stock Linux).
    """

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.cores: List[PhysicalCore] = []
        self.cpus: List[LogicalCpuState] = []
        ncores = spec.n_physical_cores
        for c in range(ncores):
            core = PhysicalCore(c, socket=c // spec.cores_per_socket)
            self.cores.append(core)
        # slot-0 threads first, then slot-1 (HTT) threads — Linux order.
        for slot in range(spec.threads_per_core):
            for c in range(ncores):
                cpu = LogicalCpuState(len(self.cpus), self.cores[c], slot)
                self.cores[c].threads.append(cpu)
                self.cpus.append(cpu)
        self._listeners = []

    # -- hotplug ---------------------------------------------------------
    def add_listener(self, fn) -> None:
        """``fn(cpu_state)`` called after any online/offline transition."""
        self._listeners.append(fn)

    def set_online(self, cpu_index: int, online: bool) -> None:
        """Online/offline one logical CPU (sysfs
        ``/sys/devices/system/cpu/cpuN/online``)."""
        if cpu_index == 0 and not online:
            raise ValueError("cpu0 cannot be offlined")
        cpu = self.cpus[cpu_index]
        if cpu.online == online:
            return
        cpu.online = online
        for fn in self._listeners:
            fn(cpu)

    def set_logical_cpus(self, k: int) -> None:
        """Configure exactly ``k`` online logical CPUs using the paper's
        onlining order (primaries first, then HTT siblings)."""
        if not (1 <= k <= self.spec.n_logical_cpus):
            raise ValueError(f"k must be in 1..{self.spec.n_logical_cpus}")
        # Desired online set: cpus [0..min(k,C)-1] plus siblings [C..C+max(0,k-C)-1].
        ncores = self.spec.n_physical_cores
        desired = set(range(min(k, ncores)))
        desired |= set(range(ncores, ncores + max(0, k - ncores)))
        for cpu in self.cpus:
            want = cpu.index in desired
            if cpu.online != want:
                if cpu.index == 0 and not want:
                    continue
                cpu.online = want
                for fn in self._listeners:
                    fn(cpu)

    def set_htt(self, enabled: bool) -> None:
        """BIOS-style HTT toggle: online/offline all slot-1 siblings."""
        for cpu in self.cpus:
            if cpu.thread_slot == 1:
                want = enabled
                if cpu.online != want:
                    cpu.online = want
                    for fn in self._listeners:
                        fn(cpu)

    # -- queries ---------------------------------------------------------
    @property
    def n_online(self) -> int:
        return sum(1 for c in self.cpus if c.online)


# ---------------------------------------------------------------------------
# The paper's two machines.  base_hz values come from
# repro.core.calibration (fit to the paper's SMM-0 base times); the Wyeast
# rate is expressed in "useful ops" per second and is close to the chip's
# nominal 2.27 GHz.
# ---------------------------------------------------------------------------

#: Wyeast cluster node (§III.A): Xeon E5520 @ 2.27 GHz, 4C/8T, 8 MB cache, 12 GB.
WYEAST_SPEC = MachineSpec(
    name="wyeast-e5520",
    sockets=1,
    cores_per_socket=4,
    threads_per_core=2,
    base_hz=2.27e9,
    memory_bytes=12 << 30,
    cache_levels=(
        CacheSpec("L1d", 32 << 10, "core"),
        CacheSpec("L2", 256 << 10, "core"),
        CacheSpec("L3", 8 << 20, "socket"),
    ),
)

#: Dell R410 node (§IV.A): Xeon E5620, 4C/8T, paper-reported cache sizes, 12 GB.
R410_SPEC = MachineSpec(
    name="r410-e5620",
    sockets=1,
    cores_per_socket=4,
    threads_per_core=2,
    base_hz=2.4e9,
    memory_bytes=12 << 30,
    cache_levels=(
        CacheSpec("L1", 4 << 20, "core"),
        CacheSpec("L2", 8 << 20, "core"),
        CacheSpec("L3", 24 << 20, "socket"),
    ),
)
