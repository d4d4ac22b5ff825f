"""SMI noise sources.

Reproduces the trigger discipline of the paper's modified "Blackbox SMI"
driver (§III.B, §IV.A):

* Two duration classes — **short**: total SMM residency 1–3 ms, **long**:
  100–110 ms.  No work is done in the handler; the residency *is* the
  perturbation.
* The driver triggers one SMI every *x* jiffies (1 jiffy = 1 ms on the
  paper's systems).  The MPI study uses x = 1000 (1 SMI/s); the
  multithreaded study sweeps x = 50…1500 (§IV.B) and 100…1600 (§IV.C).
* Each node's driver runs independently: phases are **not** synchronized
  across a cluster, which is what makes synchronized applications see a
  *max* over staggered noise (DESIGN.md §5.3).

Tick discipline: the trigger timer free-runs.  A tick that lands while the
machine is already in SMM (possible when the interval is shorter than the
SMI duration, e.g. Figure 1's 50 ms interval vs a 100–110 ms handler)
cannot be serviced — the timer softirq is itself frozen — so that tick is
swallowed and the schedule re-arms one full interval after SMM exit.
Consequently:

* interval ≫ duration — duty cycle ≈ duration/interval (the ~10.5 % tax
  of the long/1 s MPI configuration);
* interval < duration — the machine gets exactly one interval of useful
  time per SMI: useful fraction = interval/(interval + duration), the
  "dramatic" regime at the left edge of Figures 1–2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

from repro.simx.engine import Delay
from repro.machine.clock import JIFFY_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["SmiDurations", "SmiProfile", "SmiSource"]


@dataclass(frozen=True)
class SmiDurations:
    """One SMI duration class: residency sampled uniformly in [dmin, dmax]."""

    name: str
    dmin_ns: int
    dmax_ns: int

    def __post_init__(self) -> None:
        if not (0 < self.dmin_ns <= self.dmax_ns):
            raise ValueError("need 0 < dmin <= dmax")

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.dmin_ns, self.dmax_ns)

    @property
    def mean_ns(self) -> float:
        return (self.dmin_ns + self.dmax_ns) / 2.0


class SmiProfile:
    """The paper's SMI classes (SMM 0/1/2 in Tables 1–5) plus the RIM
    profile motivating the study (runtime-integrity checks from SMM)."""

    #: SMM 0 — no SMI activity (the base case).
    NONE: Optional[SmiDurations] = None
    #: SMM 1 — "short": 1–3 ms total residency.
    SHORT = SmiDurations("short", 1_000_000, 3_000_000)
    #: SMM 2 — "long": 100–110 ms total residency.
    LONG = SmiDurations("long", 100_000_000, 110_000_000)
    #: A HyperSentry/SPECTRE-style integrity measurement: tens of ms.
    RIM = SmiDurations("rim", 30_000_000, 40_000_000)

    @classmethod
    def by_index(cls, smm: int) -> Optional[SmiDurations]:
        """Map the paper's table column index (0/1/2) to a duration class."""
        return {0: cls.NONE, 1: cls.SHORT, 2: cls.LONG}[smm]

    @classmethod
    def label(cls, smm: int) -> str:
        return {0: "SMM 0", 1: "SMM 1", 2: "SMM 2"}[smm]


class SmiSource:
    """Periodic SMI generator attached to one node.

    Runs as an *ungated* process: the trigger hardware sits below the host
    software stack and keeps time during SMM.  Deterministic given
    ``seed`` (which controls both the initial phase and the per-SMI
    duration jitter).
    """

    def __init__(
        self,
        node: "Node",
        durations: Optional[SmiDurations],
        interval_jiffies: int,
        seed: int = 0,
        phase_ns: Optional[int] = None,
    ):
        self.node = node
        self.durations = durations
        self.interval_ns = int(interval_jiffies) * JIFFY_NS
        self.rng = random.Random(seed)
        self.triggered = 0
        self.swallowed_ticks = 0
        self._stopped = False
        self.proc = None
        m = node.metrics
        if m is not None:
            self._m_triggered = m.counter("smi.triggered", "SMIs asserted")
            self._m_swallowed = m.counter(
                "smi.ticks_swallowed", "trigger ticks lost to in-progress SMM")
        else:
            self._m_triggered = None
            self._m_swallowed = None
        if durations is None:
            return  # SMM 0: no noise source.
        if interval_jiffies <= 0:
            raise ValueError("interval_jiffies must be positive")
        if phase_ns is None:
            phase_ns = self.rng.randint(0, self.interval_ns - 1)
        self.phase_ns = int(phase_ns)
        self.proc = node.engine.process(
            self._run(), name=f"{node.name}.smi-source", gate=None, daemon=True
        )

    def stop(self) -> None:
        """Silence the source (kills the generator process)."""
        self._stopped = True
        if self.proc is not None and self.proc.alive:
            self.proc.kill()

    def _run(self) -> Generator:
        engine = self.node.engine
        t_next = engine.now + self.phase_ns
        while not self._stopped:
            gap = t_next - engine.now
            if gap > 0:
                yield Delay(gap)
            if self._stopped:
                return
            if self.node.smm.in_smm:
                # Swallowed tick: the timer can't run inside SMM; re-arm a
                # full interval after exit (phase reset).
                self.swallowed_ticks += 1
                if self._m_swallowed is not None:
                    self._m_swallowed.value += 1
                yield self.node.smm.wait_exit()
                t_next = engine.now + self.interval_ns
                continue
            duration = self.durations.sample(self.rng)
            self.node.smm.trigger(duration, source="smi-driver")
            self.triggered += 1
            if self._m_triggered is not None:
                self._m_triggered.value += 1
            t_next += self.interval_ns
