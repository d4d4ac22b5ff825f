"""NPB problem-class parameters and workload calibration.

Structure constants (grid sizes, iteration counts, random-number volumes)
come from the NPB specification.  Total work demands are *calibrated*:
the paper's Table 1–3 single-rank SMM-0 times define the work in
machine-units via ``work = T_paper × solo_rate(profile)`` — see
:mod:`repro.core.calibration` for the derivation and the test that
re-derives these numbers.  With that one-point-per-class calibration, all
scaling behaviour (rank counts, placements) and every noise delta are
*predictions* of the model, not fits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.machine.profile import WorkloadProfile

__all__ = [
    "NasClass",
    "EpParams",
    "BtParams",
    "FtParams",
    "EP_PARAMS",
    "BT_PARAMS",
    "FT_PARAMS",
    "NAS_EP_PROFILE",
    "NAS_BT_PROFILE",
    "NAS_FT_PROFILE",
    "PAPER_BASE_1RANK_S",
]


class NasClass(str, enum.Enum):
    """NPB problem classes used in the paper."""

    A = "A"
    B = "B"
    C = "C"


# ---------------------------------------------------------------------------
# Workload profiles.  htt_yield ≈ 1 for these FP-dense solvers (Leng et
# al. [4]: "applications performing intensive floating-point operations do
# not benefit from HTT"); cache sensitivity low for the blocked solvers.
# ---------------------------------------------------------------------------

NAS_EP_PROFILE = WorkloadProfile(
    name="nas-ep",
    htt_yield=1.0,
    working_set_bytes=256 << 10,   # EP's state is tiny (RNG streams + tallies)
    base_miss_rate=0.002,
    mem_ref_fraction=0.08,
    cache_sensitivity=0.3,
)

NAS_BT_PROFILE = WorkloadProfile(
    name="nas-bt",
    htt_yield=1.05,
    working_set_bytes=2 << 20,     # blocked tridiagonal sweeps, good locality
    base_miss_rate=0.02,
    mem_ref_fraction=0.10,
    cache_sensitivity=0.25,
)

NAS_FT_PROFILE = WorkloadProfile(
    name="nas-ft",
    htt_yield=1.05,
    working_set_bytes=16 << 20,    # streaming 3-D FFT lines: LLC-busting
    base_miss_rate=0.15,
    mem_ref_fraction=0.12,
    cache_sensitivity=0.2,
)


# ---------------------------------------------------------------------------
# The paper's single-rank SMM-0 base times (Tables 1–3), the calibration
# anchors.  FT class C never ran on one rank in the paper (blank cells);
# its work is extrapolated with the FFT op-count formula
# 5·N·log2(N)·niter (ratio to class B ≈ 4.32, see calibration.py).
# ---------------------------------------------------------------------------

PAPER_BASE_1RANK_S: Dict[str, Dict[NasClass, float]] = {
    "EP": {NasClass.A: 23.12, NasClass.B: 92.72, NasClass.C: 370.67},
    "BT": {NasClass.A: 86.87, NasClass.B: 369.70, NasClass.C: 1585.75},
    "FT": {NasClass.A: 7.64, NasClass.B: 95.48, NasClass.C: 412.59},
}


def _calibrated_work(bench: str, cls: NasClass, profile: WorkloadProfile) -> float:
    """paper seconds × solo machine rate → work units (see module doc)."""
    from repro.machine.topology import WYEAST_SPEC

    return PAPER_BASE_1RANK_S[bench][cls] * profile.solo_rate(WYEAST_SPEC.base_hz)


@dataclass(frozen=True)
class EpParams:
    """EP — Embarrassingly Parallel (2^m Gaussian pairs, one final sum).

    Structure: each rank generates its share of 2^m random pairs,
    tallying acceptances into 10 concentric-annulus counters; the only
    communication is three small allreduces at the end (sx, sy, and the
    counts), plus the init barrier.  (§III.C: "little synchronization
    between the MPI ranks".)
    """

    cls: NasClass
    m: int                 # log2 of the pair count
    work_total: float      # machine work units, calibrated


@dataclass(frozen=True)
class BtParams:
    """BT — Block Tri-diagonal solver on an N³ grid, 200 ADI iterations.

    Structure per iteration: three directional sweeps (x, y, z); in each,
    every rank of the √p×√p process grid computes its cells and exchanges
    boundary faces with its two neighbours in that direction (the
    multi-partition scheme).  BT requires a square rank count.
    """

    cls: NasClass
    grid_n: int
    niter: int
    work_total: float
    #: bytes per face message = face_doubles × 8 × grid_n² / √p (5 solution
    #: components per boundary cell).
    face_doubles: int = 5

    def msg_bytes(self, p: int) -> int:
        import math

        q = int(math.isqrt(p))
        return int(self.face_doubles * 8 * self.grid_n * self.grid_n / max(1, q))


@dataclass(frozen=True)
class FtParams:
    """FT — 3-D FFT: per iteration a local FFT pass plus a global
    transpose implemented as an all-to-all of the entire dataset
    (§III.C: "FT performs discrete 3D fast Fourier Transform, using MPI
    all-to-all communication").
    """

    cls: NasClass
    nx: int
    ny: int
    nz: int
    niter: int
    work_total: float
    #: the paper's Table 3 has no values for FT-C below 4 ranks
    #: (reproduced as infeasible; see repro.apps.nas.ft.ft_feasible).
    min_ranks: int = 1

    @property
    def cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def total_bytes(self) -> int:
        return self.cells * 16  # complex128

    def per_pair_bytes(self, p: int) -> int:
        """All-to-all block size: each rank sends cells·16/p² to each peer."""
        return max(1, self.total_bytes // (p * p))


def _build() -> tuple:
    ep = {
        c: EpParams(c, m, _calibrated_work("EP", c, NAS_EP_PROFILE))
        for c, m in {NasClass.A: 28, NasClass.B: 30, NasClass.C: 32}.items()
    }
    bt = {
        c: BtParams(c, n, 200, _calibrated_work("BT", c, NAS_BT_PROFILE))
        for c, n in {NasClass.A: 64, NasClass.B: 102, NasClass.C: 162}.items()
    }
    ft_geom = {
        NasClass.A: (256, 256, 128, 6, 1),
        NasClass.B: (512, 256, 256, 20, 1),
        NasClass.C: (512, 512, 512, 20, 4),
    }
    ft = {
        c: FtParams(
            c, nx, ny, nz, niter,
            _calibrated_work("FT", c, NAS_FT_PROFILE),
            min_ranks=minr,
        )
        for c, (nx, ny, nz, niter, minr) in ft_geom.items()
    }
    return ep, bt, ft


EP_PARAMS, BT_PARAMS, FT_PARAMS = _build()
