"""Serializable units of work: cell specs and cell results.

A sweep is a list of :class:`CellSpec` — each one small, JSON-able, and
self-contained, so it can cross a process boundary (the crash-isolation
worker), land in a journal line (checkpoint/resume), or be re-run years
later from a manifest.  A :class:`CellResult` is the matching record of
what happened: status, payload, attempts, duration, and the seed that
actually produced the payload.

Seeds are **position-derived, never order-derived**: a spec carries its
``base_seed`` computed from where the cell sits in the matrix (see
:func:`repro.core.experiment.smm_cell_seed`), and every retry reuses it
unchanged.  Running cells in any order — serially, under ``--jobs 8``,
or resumed after a crash — therefore yields bit-identical payloads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "OK",
    "FAILED",
    "FAILED_IN_SIM",
    "CellSpec",
    "CellResult",
    "seed_free",
]

#: Terminal cell statuses.  Timeouts, crashes, corrupt output, and cell
#: exceptions all end as FAILED (with ``error`` saying which); a FAILED
#: cell renders as the tables' "-" and makes the CLI exit nonzero, but
#: never kills the sweep.  FAILED_IN_SIM is the *deterministic* failure of
#: a cell whose simulation was killed by injected model-level faults
#: (``--fault-plan``): same rendering and exit code, but never retried —
#: the same seed and plan would fail the same way.
OK = "ok"
FAILED = "failed"
FAILED_IN_SIM = "failed-in-sim"


def seed_free(fn: str, params: Dict[str, Any]) -> bool:
    """Does a cell's payload not depend on its seed?

    True for a zero-SMI NAS cell with no ``faults``: the simulator's
    RNGs draw only for SMI arrivals, SMI durations and post-SMM
    misplacements, so such a run is the same at every seed, and so is
    each of its repetitions.  An ``attr`` cell counts too (its ``attr``
    param keeps its digest apart from the plain cell's).
    ``tests/integration/test_artifact_shapes.py`` checks the invariance
    with the RNG's draw methods patched to raise.
    """
    return (fn == "nas" and params.get("smm") == 0
            and not params.get("faults"))


@dataclass(frozen=True)
class CellSpec:
    """One isolated unit of a sweep.

    ``fn`` names an executor in the :mod:`repro.runx.cells` registry;
    ``params`` is its entire JSON-able configuration; ``base_seed`` is
    the attempt-0 seed.  ``id`` must be unique within the sweep and
    stable across runs — it is the checkpoint/resume key.
    """

    id: str
    fn: str
    params: Dict[str, Any] = field(default_factory=dict)
    base_seed: int = 1

    def to_record(self) -> Dict[str, Any]:
        return {"id": self.id, "fn": self.fn, "params": dict(self.params),
                "base_seed": self.base_seed}

    def digest(self) -> str:
        """Content digest of the *work* (executor, params, seed) — the
        ``id`` is deliberately excluded.  Two specs with equal digests
        produce identical payloads (cells are seed-deterministic), so a
        journaled result can satisfy a renamed or re-labelled cell
        without spawning a worker.

        A :func:`seed_free` spec leaves ``base_seed`` out: it names only
        what decides the payload, so the runner's journal, the serve
        cache and coalescing share one result across seeds.  Every other
        spec keeps the seed, and its digest is unchanged."""
        work = [self.fn, self.params]
        if not seed_free(self.fn, self.params):
            work.append(self.base_seed)
        blob = json.dumps(work, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "CellSpec":
        return cls(id=rec["id"], fn=rec["fn"],
                   params=dict(rec.get("params", {})),
                   base_seed=rec.get("base_seed", 1))


@dataclass
class CellResult:
    """What happened to one cell, across all its attempts."""

    id: str
    status: str
    value: Optional[Dict[str, Any]] = None
    attempts: int = 1
    duration_s: float = 0.0
    seed: Optional[int] = None
    error: Optional[str] = None
    resumed: bool = False
    #: per-attempt failure notes (empty on a clean first-try success).
    attempt_errors: List[str] = field(default_factory=list)
    #: content digest of the producing spec (see :meth:`CellSpec.digest`);
    #: None on records written before the field existed.
    digest: Optional[str] = None
    #: injected-fault evidence for FAILED_IN_SIM cells: the injector's
    #: event log (``{"events": [...], "suppressed": n?}``); None otherwise.
    fault: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    def to_record(self) -> Dict[str, Any]:
        rec = asdict(self)
        if rec.get("fault") is None:
            del rec["fault"]  # keep clean-run manifests byte-stable
        rec["kind"] = "cell"
        return rec

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "CellResult":
        return cls(
            id=rec["id"],
            status=rec.get("status", FAILED),
            value=rec.get("value"),
            attempts=rec.get("attempts", 1),
            duration_s=rec.get("duration_s", 0.0),
            seed=rec.get("seed"),
            error=rec.get("error"),
            resumed=rec.get("resumed", False),
            attempt_errors=list(rec.get("attempt_errors", [])),
            digest=rec.get("digest"),
            fault=rec.get("fault"),
        )
