"""Time sources of a node: TSC, CLOCK_MONOTONIC, and the jiffy unit.

The defining property reproduced here is §II.A of the paper: *time keeps
flowing during SMM but the host software doesn't run*.  The TSC and the
monotonic clock are free-running counters — a task that reads the clock
before and after an SMI sees the full gap (this is exactly how the
detector in :mod:`repro.core.detector` and the Intel BIOSBITS 150 µs check
work) — whereas anything that requires the kernel to execute (jiffy
updates on a non-tickless kernel, timer callbacks) is delayed until SMM
exit (modeled by the node wake-up gate, not by this module).

The paper's systems use 1 jiffy = 1 ms ("In our system, one jiffy equals
one millisecond", §III.B); the SMI driver interval is configured in
jiffies.
"""

from __future__ import annotations

from repro.simx.engine import Engine

__all__ = ["Clock", "JIFFY_NS"]

#: 1 jiffy = 1 ms on both of the paper's systems (HZ=1000).
JIFFY_NS = 1_000_000


class Clock:
    """Per-node time sources.

    All nodes share the engine's global simulated time; per-node offsets
    model independent boot times (so TSC values differ across nodes, as on
    a real cluster, even though there is no drift model).
    """

    def __init__(self, engine: Engine, tsc_hz: float = 2.27e9, boot_offset_ns: int = 0):
        if tsc_hz <= 0:
            raise ValueError("tsc_hz must be positive")
        self.engine = engine
        self.tsc_hz = tsc_hz
        self.boot_offset_ns = int(boot_offset_ns)
        # Injected clock-skew fault (see repro.faults): the node's clocks
        # run fast/slow by ``_skew_ppm`` parts-per-million from the instant
        # the skew was set; ``_skew_accum_ns`` folds in drift accumulated
        # under previous skew settings.  Both zero (no arithmetic change)
        # unless a fault plan sets them.
        self._skew_ppm = 0.0
        self._skew_base_ns = 0
        self._skew_accum_ns = 0

    def set_skew(self, ppm: float) -> None:
        """Start drifting this node's clocks by ``ppm`` parts-per-million
        relative to true (engine) time.  Drift already accumulated under a
        previous setting is preserved."""
        now = self.engine.now
        if self._skew_ppm:
            self._skew_accum_ns += int(
                (now - self._skew_base_ns) * (self._skew_ppm * 1e-6))
        self._skew_base_ns = now
        self._skew_ppm = float(ppm)

    # -- raw counters -------------------------------------------------------
    def monotonic_ns(self) -> int:
        """CLOCK_MONOTONIC: nanoseconds since node boot.  Ticks in SMM."""
        ns = self.engine.now + self.boot_offset_ns
        if self._skew_ppm:
            ns += self._skew_accum_ns + int(
                (self.engine.now - self._skew_base_ns) * (self._skew_ppm * 1e-6))
        elif self._skew_accum_ns:
            ns += self._skew_accum_ns
        return ns

    def rdtsc(self) -> int:
        """Time-stamp counter value.  Free-running; ticks in SMM.  This is
        what the SMI driver uses to self-measure SMI latency (§III.B)."""
        return int(self.monotonic_ns() * self.tsc_hz / 1e9)

    def tsc_to_ns(self, tsc_delta: int) -> int:
        """Convert a TSC delta to nanoseconds."""
        return int(tsc_delta * 1e9 / self.tsc_hz)

    def seconds(self) -> float:
        """Monotonic time as float seconds (convenience for reports)."""
        return self.monotonic_ns() / 1e9
