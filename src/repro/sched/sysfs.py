"""The sysfs CPU-hotplug front-end used by the multithreaded methodology.

§IV.A: "we used the Linux *sysfs* interface to selectively offline
specific logical cores ...  (Offlining a core's HTT sibling while leaving
the physical core online causes the kernel to ignore the HTT sibling for
scheduling purposes.)"

This wrapper adds the safety step a real ``echo 0 > .../online`` implies:
tasks resident on the dying CPU are migrated away before it disappears.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["Sysfs"]


class Sysfs:
    """Hotplug control for one node."""

    def __init__(self, node: "Node"):
        self.node = node

    def set_online(self, cpu_index: int, online: bool) -> None:
        """Mirror of ``/sys/devices/system/cpu/cpuN/online``."""
        if not online and self.node.scheduler is not None:
            self.node.scheduler.evacuate(cpu_index)
        self.node.topology.set_online(cpu_index, online)

    def set_logical_cpus(self, k: int) -> None:
        """Bring the node to exactly ``k`` online logical CPUs using the
        paper's onlining order (primaries first, then HTT siblings)."""
        spec = self.node.spec
        ncores = spec.n_physical_cores
        desired = set(range(min(k, ncores)))
        desired |= set(range(ncores, ncores + max(0, k - ncores)))
        # Offline first (migrating work away), then online.
        for cpu in self.node.topology.cpus:
            if cpu.online and cpu.index not in desired:
                self.set_online(cpu.index, False)
        for cpu in self.node.topology.cpus:
            if not cpu.online and cpu.index in desired:
                self.set_online(cpu.index, True)

    def set_htt(self, enabled: bool) -> None:
        """BIOS-style HTT toggle (all slot-1 siblings)."""
        for cpu in self.node.topology.cpus:
            if cpu.thread_slot == 1:
                if cpu.online != enabled:
                    self.set_online(cpu.index, enabled)
