"""Experiment methodology: run matrices, repetitions, and Δ/%Δ reduction.

The paper's protocol (§III.C): "For each case we measured six runs and
report the average.  We repeated the entire set of measurements for the
three cases: no SMI activity, short SMIs, and long SMIs."  Its tables then
show, per configuration, the base mean, and for each SMI class the mean,
the absolute delta (Δ) and the percent change (%).

This module packages that protocol so every benchmark harness uses the
same machinery: a case is a named configuration; a *runner* maps
``(case, smm_class, seed) -> wall seconds (or None if infeasible)``; the
reducer produces the paper-style row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from statistics import mean, stdev
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "ExperimentCase",
    "Measurement",
    "ExperimentResult",
    "run_repeated",
    "run_matrix",
    "rep_seed",
    "smm_cell_seed",
]

log = logging.getLogger(__name__)

#: The paper uses 6 repetitions; simulations are deterministic apart from
#: seeded jitter, so the CLI defaults lower (``--reps`` overrides).
PAPER_REPS = 6

#: Per-repetition and per-SMI-class seed strides.  These are *positional*
#: derivations — a cell's seeds depend only on where it sits in the
#: matrix, never on execution order — which is what lets `repro.runx`
#: run cells in parallel or resume a sweep and still produce results
#: bit-identical to an uninterrupted serial run.
REP_SEED_STRIDE = 7919
SMM_SEED_STRIDE = 31
HTT_SEED_OFFSET = 977


def rep_seed(base_seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` (0-based) of a cell."""
    return base_seed + REP_SEED_STRIDE * rep


def smm_cell_seed(seed: int, smm: int, htt: bool = False) -> int:
    """Base seed of the (smm, htt) cell of a table row."""
    return seed + SMM_SEED_STRIDE * smm + (HTT_SEED_OFFSET if htt else 0)


@dataclass(frozen=True)
class ExperimentCase:
    """One configuration row of a table (e.g. class B, 4 ranks, 1/node)."""

    name: str
    params: Dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.name


@dataclass
class Measurement:
    """Repetition statistics of one (case, smm) cell."""

    values: List[float]

    @property
    def mean(self) -> float:
        return mean(self.values)

    @property
    def std(self) -> float:
        return stdev(self.values) if len(self.values) > 1 else 0.0

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)


@dataclass
class ExperimentResult:
    """A full paper-style row: base plus per-SMI-class deltas.

    ``cells[smm]`` is the :class:`Measurement` for that SMI class, or
    ``None`` if the configuration is infeasible (the tables' "-").
    """

    case: ExperimentCase
    cells: Dict[int, Optional[Measurement]]

    def base(self) -> Optional[float]:
        m = self.cells.get(0)
        return m.mean if m is not None else None

    def delta(self, smm: int) -> Optional[float]:
        m, b = self.cells.get(smm), self.base()
        if m is None or b is None:
            return None
        return m.mean - b

    def pct(self, smm: int) -> Optional[float]:
        d, b = self.delta(smm), self.base()
        if d is None or b is None or b == 0:
            return None
        return 100.0 * d / b


def run_repeated(
    runner: Callable[[int], Optional[float]],
    reps: int,
    base_seed: int = 1,
) -> Optional[Measurement]:
    """Run ``runner(seed)`` ``reps`` times with distinct seeds; average.

    Returns None if the first repetition reports infeasibility (None) —
    infeasibility is configuration-determined, not seed-determined.
    """
    values: List[float] = []
    for r in range(reps):
        seed = rep_seed(base_seed, r)
        v = runner(seed)
        if v is None:
            log.debug("rep %d/%d seed=%d: infeasible", r + 1, reps, seed)
            return None
        log.debug("rep %d/%d seed=%d: %.6fs", r + 1, reps, seed, v)
        values.append(v)
    return Measurement(values)


def run_matrix(
    cases: Sequence[ExperimentCase],
    runner: Callable[[ExperimentCase, int, int], Optional[float]],
    smm_classes: Sequence[int] = (0, 1, 2),
    reps: int = PAPER_REPS,
    base_seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ExperimentResult]:
    """The paper's full protocol: every case × every SMI class × reps.

    ``runner(case, smm, seed)`` returns wall seconds or None (infeasible).
    """
    results: List[ExperimentResult] = []
    for case in cases:
        cells: Dict[int, Optional[Measurement]] = {}
        for smm in smm_classes:
            if progress is not None:
                progress(f"{case.name} smm={smm}")
            cells[smm] = run_repeated(
                lambda seed, case=case, smm=smm: runner(case, smm, seed),
                reps=reps,
                base_seed=base_seed + 104729 * smm,
            )
        results.append(ExperimentResult(case, cells))
    return results
