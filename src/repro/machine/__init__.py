"""repro.machine — the simulated hardware platform.

Models the two machines used in the paper:

* **Wyeast node** — Intel Xeon E5520 @ 2.27 GHz, 4 physical cores × 2 HTT
  siblings, 8 MB cache, 12 GB RAM (the 16-node MPI cluster, §III.A).
* **Dell PowerEdge R410** — Intel Xeon E5620 quad-core with HTT,
  4 MB L1 / 8 MB L2 / 24 MB L3 (as reported by the paper, §IV.A), 12 GB RAM
  (the multithreaded study).

Components:

* :mod:`topology` — sockets / cores / logical CPUs, sysfs-style hotplug.
* :mod:`profile` — workload execution profiles (HTT yield, working set,
  miss rates) that parameterize the fluid CPU model.
* :mod:`cache` — occupancy-based cache contention model.
* :mod:`cpu` — logical-CPU execution via :class:`repro.simx.rate.RateExecutor`.
* :mod:`clock` — TSC / CLOCK_MONOTONIC / jiffies (all keep ticking in SMM).
* :mod:`smm` — the System Management Mode engine (global core freeze).
* :mod:`node` — composition of all of the above plus the wake-up gate.
"""

from repro.machine.profile import WorkloadProfile, COMPUTE_BOUND, MEMORY_BOUND, OS_INTENSIVE
from repro.machine.topology import MachineSpec, Topology, WYEAST_SPEC, R410_SPEC
from repro.machine.cache import CacheSpec, CacheHierarchy
from repro.machine.clock import Clock, JIFFY_NS
from repro.machine.smm import SmmController, SmmStats
from repro.machine.node import Node

__all__ = [
    "WorkloadProfile",
    "COMPUTE_BOUND",
    "MEMORY_BOUND",
    "OS_INTENSIVE",
    "MachineSpec",
    "Topology",
    "WYEAST_SPEC",
    "R410_SPEC",
    "CacheSpec",
    "CacheHierarchy",
    "Clock",
    "JIFFY_NS",
    "SmmController",
    "SmmStats",
    "Node",
]
