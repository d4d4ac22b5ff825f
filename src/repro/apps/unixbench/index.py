"""UnixBench index scoring.

Each test's raw result (loops/second, MWIPS, ...) is divided by the
reference result of the 1995 baseline machine (a SPARCstation 20-61,
byte-unixbench's ``george``) and multiplied by 10; the system's index is
the geometric mean of the per-test scores.  A score of 10 means
"as fast as george".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["BASELINES", "TestScore", "IndexResult", "geometric_index"]

#: byte-unixbench reference results (tests the paper selected).
BASELINES: Dict[str, float] = {
    "dhrystone": 116_700.0,        # lps
    "whetstone": 55.0,             # MWIPS
    "pipe_throughput": 12_440.0,   # lps
    "context_switching": 4_000.0,  # lps
    "syscall_overhead": 15_000.0,  # lps
}


@dataclass(frozen=True)
class TestScore:
    """One test's raw result and its index score."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    raw: float
    baseline: float

    @property
    def score(self) -> float:
        return 10.0 * self.raw / self.baseline


@dataclass
class IndexResult:
    """A full scored run (one parallelism level)."""

    copies: int
    tests: List[TestScore]

    @property
    def index(self) -> float:
        return geometric_index([t.score for t in self.tests])


def geometric_index(scores: List[float]) -> float:
    """Geometric mean of the per-test scores (UnixBench's system index)."""
    if not scores:
        raise ValueError("no scores")
    if any(s <= 0 for s in scores):
        raise ValueError("scores must be positive")
    return math.exp(sum(math.log(s) for s in scores) / len(scores))
