"""The "Blackbox SMI" driver model.

The paper (§III.B) uses a modified version of Delgado & Karavanic's
driver [7]: a kernel module that (a) triggers SMIs of a configured class
every *x* jiffies and (b) self-measures the resulting SMM residency with
the TSC — reading the counter immediately before asserting the SMI and
immediately after control returns.  "The SMI driver uses the TSC counter
to measure the average SMI latency."

:class:`BlackboxSmiDriver` reproduces that interface on a simulated node:
``configure()`` mirrors the module parameters, ``start()/stop()`` load and
unload the trigger, and ``read_stats()`` returns what the driver's procfs
file would show — including the *measured* latencies, which differ from
the configured durations by the SMM entry rendezvous (and which are how
the experiments verify the 1–3 ms / 100–110 ms classes actually landed).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.core.smi import SmiDurations, SmiProfile, SmiSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["BlackboxSmiDriver", "DriverStats"]

log = logging.getLogger(__name__)


@dataclass
class DriverStats:
    """What ``cat /proc/smi_driver`` reports."""

    smi_count: int = 0
    mean_latency_ns: float = 0.0
    min_latency_ns: int = 0
    max_latency_ns: int = 0
    latencies_ns: List[int] = field(default_factory=list)


class BlackboxSmiDriver:
    """Loadable SMI trigger for one node."""

    def __init__(self, node: "Node"):
        self.node = node
        self.durations: Optional[SmiDurations] = SmiProfile.SHORT
        self.interval_jiffies = 1000
        self.seed = 0
        self._source: Optional[SmiSource] = None
        self._baseline_entries = 0

    # -- module parameters -----------------------------------------------------
    def configure(
        self,
        smm_class: int = 1,
        interval_jiffies: int = 1000,
        seed: int = 0,
    ) -> None:
        """Set module parameters (must be stopped).

        ``smm_class`` follows the paper's table encoding: 0 = no SMIs,
        1 = short (1–3 ms), 2 = long (100–110 ms).
        """
        if self._source is not None:
            raise RuntimeError("driver is loaded; stop() before reconfiguring")
        self.durations = SmiProfile.by_index(smm_class)
        self.interval_jiffies = interval_jiffies
        self.seed = seed

    def start(self) -> None:
        """insmod: begin triggering."""
        if self._source is not None:
            raise RuntimeError("driver already loaded")
        self._baseline_entries = self.node.smm.stats.entries
        log.info("%s: loading SMI driver interval=%d jiffies seed=%d",
                 self.node.name, self.interval_jiffies, self.seed)
        self._source = SmiSource(
            self.node, self.durations, self.interval_jiffies, seed=self.seed
        )

    def stop(self) -> None:
        """rmmod: stop triggering (pending SMM residency still completes)."""
        if self._source is not None:
            log.info("%s: unloading SMI driver after %d entries",
                     self.node.name,
                     self.node.smm.stats.entries - self._baseline_entries)
            self._source.stop()
            self._source = None

    # -- procfs ------------------------------------------------------------
    def read_stats(self) -> DriverStats:
        """TSC-measured latency statistics since :meth:`start`."""
        all_lat = self.node.smm.stats.measured_latency_ns
        lat = all_lat[self._baseline_entries:]
        if not lat:
            return DriverStats()
        return DriverStats(
            smi_count=len(lat),
            mean_latency_ns=sum(lat) / len(lat),
            min_latency_ns=min(lat),
            max_latency_ns=max(lat),
            latencies_ns=list(lat),
        )
