"""Model-level fault plans: the what/where/when of injected faults.

A fault plan is a JSON list of rules — deliberately the same shape as
the process-level chaos plans of :mod:`repro.runx.chaos` (a ``match``
glob over cell ids plus a ``fault`` kind and per-kind parameters), so
process-level and model-level fault injection share one vocabulary.  The
difference is *where* the fault lands: chaos faults kill the worker
subprocess around the simulation; the faults described here are injected
*into* the simulated machines, links, and clocks, and the simulation is
expected to degrade gracefully (typed MPI errors, a ``failed-in-sim``
cell, a sweep that carries on).

Fault kinds
-----------
``node_crash``   node ``node`` fails hard at ``at_s`` (simulated seconds).
``node_hang``    node ``node`` freezes permanently at ``at_s`` (an SMI
                 handler that never returns).
``cpu_degrade``  logical CPU ``cpu`` of node ``node`` persistently runs
                 at ``factor`` of its base rate from ``at_s`` on.
``clock_skew``   node ``node``'s clocks drift by ``skew_ppm`` ppm from
                 ``at_s`` on.
``link_drop``    each matching message is dropped with probability ``p``.
``link_dup``     each matching message is duplicated with probability ``p``.
``link_corrupt`` each matching message's payload is corrupted with
                 probability ``p`` (receivers raise MpiCorruptionError).
``link_delay``   each matching message is delayed ``delay_ns`` extra wire
                 latency with probability ``p``.

Link rules may be scoped with ``src``/``dst`` (rank numbers; omitted =
any).  ``mpi_timeout_s`` on any rule overrides the derived MPI timeout
for cells the rule matches.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["PLAN_ENV", "NODE_FAULTS", "LINK_FAULTS", "FaultRule", "FaultPlan"]

#: Environment variable naming the active model-fault plan file
#: (``--fault-plan FILE`` takes precedence when both are given).
PLAN_ENV = "REPRO_FAULT_PLAN"

NODE_FAULTS = ("node_crash", "node_hang", "cpu_degrade", "clock_skew")
LINK_FAULTS = ("link_drop", "link_dup", "link_corrupt", "link_delay")
_FAULTS = NODE_FAULTS + LINK_FAULTS


@dataclass(frozen=True)
class FaultRule:
    """Inject ``fault`` into the simulation of cells matching ``match``.

    ``match`` is an ``fnmatch`` glob tested against the cell id, exactly
    as in :class:`repro.runx.chaos.FaultRule`.  The remaining fields
    parameterize the fault kind (see module docstring); irrelevant fields
    are ignored for a given kind.
    """

    fault: str
    match: str = "*"
    node: int = 0
    cpu: int = 0
    at_s: float = 1.0
    factor: float = 0.5
    skew_ppm: float = 200.0
    p: float = 1.0
    delay_ns: int = 2_000_000
    src: Optional[int] = None
    dst: Optional[int] = None
    mpi_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fault not in _FAULTS:
            raise ValueError(f"unknown fault {self.fault!r} (one of {_FAULTS})")
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0: {self.at_s}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1]: {self.p}")
        if not (0.0 < self.factor <= 1.0):
            raise ValueError(f"factor must be in (0, 1]: {self.factor}")
        if self.delay_ns < 0:
            raise ValueError(f"delay_ns must be >= 0: {self.delay_ns}")
        if self.mpi_timeout_s is not None and self.mpi_timeout_s <= 0:
            raise ValueError(f"mpi_timeout_s must be > 0: {self.mpi_timeout_s}")

    @property
    def is_link(self) -> bool:
        return self.fault in LINK_FAULTS

    def applies(self, cell_id: str) -> bool:
        return fnmatch.fnmatchcase(cell_id, self.match)

    def fires_in(self, nodes: int, links: bool) -> bool:
        """True when an injector attached to a run of ``nodes`` nodes —
        joined by MPI links if ``links`` — would arm this rule: a link
        rule needs links, a node rule a node at its index."""
        if self.is_link:
            return links
        return 0 <= self.node < nodes

    def to_record(self) -> Dict[str, Any]:
        rec: Dict[str, Any] = {"fault": self.fault, "match": self.match}
        if self.fault in NODE_FAULTS:
            rec["node"] = self.node
            rec["at_s"] = self.at_s
            if self.fault == "cpu_degrade":
                rec["cpu"] = self.cpu
                rec["factor"] = self.factor
            elif self.fault == "clock_skew":
                rec["skew_ppm"] = self.skew_ppm
        else:
            rec["p"] = self.p
            if self.fault == "link_delay":
                rec["delay_ns"] = self.delay_ns
            if self.src is not None:
                rec["src"] = self.src
            if self.dst is not None:
                rec["dst"] = self.dst
        if self.mpi_timeout_s is not None:
            rec["mpi_timeout_s"] = self.mpi_timeout_s
        return rec

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "FaultRule":
        return cls(
            fault=rec["fault"],
            match=rec.get("match", "*"),
            node=int(rec.get("node", 0)),
            cpu=int(rec.get("cpu", 0)),
            at_s=float(rec.get("at_s", 1.0)),
            factor=float(rec.get("factor", 0.5)),
            skew_ppm=float(rec.get("skew_ppm", 200.0)),
            p=float(rec.get("p", 1.0)),
            delay_ns=int(rec.get("delay_ns", 2_000_000)),
            src=rec.get("src"),
            dst=rec.get("dst"),
            mpi_timeout_s=rec.get("mpi_timeout_s"),
        )


@dataclass
class FaultPlan:
    rules: List[FaultRule] = field(default_factory=list)

    def rules_for(self, cell_id: str) -> List[FaultRule]:
        """Every rule whose glob matches ``cell_id`` (order preserved)."""
        return [r for r in self.rules if r.applies(cell_id)]

    # -- (de)serialization ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([r.to_record() for r in self.rules], indent=1)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json() + "\n")

    @classmethod
    def from_rules(cls, rules: Sequence[Dict[str, Any]]) -> "FaultPlan":
        return cls([FaultRule.from_record(r) for r in rules])

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
        if not isinstance(data, list):
            raise ValueError("fault plan must be a JSON list of rules")
        return cls.from_rules(data)
