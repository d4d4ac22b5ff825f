"""repro.simx — a small deterministic discrete-event simulation (DES) engine.

This package is the foundation of the whole reproduction: every hardware
and software component (CPUs, SMM controller, OS scheduler, NICs, MPI
ranks) is either a process running on this engine or a callback scheduled
on it.

Design goals
------------
* **Determinism** — given the same seed(s), a simulation replays exactly.
  Time is an integer number of nanoseconds; ties are broken by insertion
  order (a monotonically increasing sequence number).
* **Generator processes** — simulation actors are plain Python generator
  functions that ``yield`` commands (:class:`Delay`, :class:`Event`,
  another :class:`Process`, ...), in the style of SimPy, but built from
  scratch so the SMM "freeze gate" semantics (see :mod:`repro.machine.smm`)
  can be wired into process wake-up delivery.
* **Piecewise-constant-rate work** — :mod:`repro.simx.rate` integrates
  service rates over time so CPU execution under processor sharing,
  Hyper-Threading coupling, and SMM freezes is exact without per-cycle
  events.

Public API
----------
:class:`Engine`, :class:`Process`, :class:`Event`, :class:`Delay`,
:class:`AllOf`, :class:`AnyOf`, :class:`~repro.simx.resources.Channel`,
:class:`~repro.simx.resources.Store`,
:class:`~repro.simx.rate.RateExecutor`, :class:`~repro.simx.rate.WorkItem`,
:class:`~repro.simx.timeline.Timeline`, and the ``ns``/``seconds``
time conversions.
"""

from repro.simx.errors import SimulationError, ProcessKilled
from repro.simx.engine import Engine, Delay, Event, AllOf, AnyOf, Process
from repro.simx.resources import Channel, Store
from repro.simx.rate import RateExecutor, WorkItem
from repro.simx.timeline import Timeline, TraceRecord

__all__ = [
    "Engine",
    "Process",
    "Event",
    "Delay",
    "AllOf",
    "AnyOf",
    "Channel",
    "Store",
    "RateExecutor",
    "WorkItem",
    "Timeline",
    "TraceRecord",
    "SimulationError",
    "ProcessKilled",
]

SECOND = 1_000_000_000

def ns(seconds: float) -> int:
    """Convert seconds (float) to integer nanoseconds."""
    return int(round(seconds * SECOND))

def seconds(t_ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return t_ns / SECOND
