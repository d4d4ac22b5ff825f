"""Phase-level models of the NAS Parallel Benchmarks (MPI versions).

The paper measures EP, BT, and FT at classes A/B/C on 1–16 nodes with 1
or 4 ranks per node (§III).  Each model here reproduces the benchmark's
*structure* — how much computation, in what phases, synchronized by which
communication patterns — using the published NPB problem-class parameters
(:mod:`params`), with total work calibrated to the paper's measured
single-rank base times (:mod:`repro.core.calibration` explains the fit).

The models return :class:`repro.apps.base.AppResult`-compatible floats
(the timed region in seconds) from each rank, and each rank body's
built-in verification checks the *algorithmic* outputs that flow through
the simulated collectives (e.g. EP's Gaussian-pair counts summed by
allreduce) so communication correctness is tested end-to-end.
"""

from repro.apps.nas.params import (
    NasClass,
    EP_PARAMS,
    BT_PARAMS,
    FT_PARAMS,
    NAS_EP_PROFILE,
    NAS_BT_PROFILE,
    NAS_FT_PROFILE,
)
from repro.apps.nas.ep import make_ep_app
from repro.apps.nas.bt import make_bt_app
from repro.apps.nas.ft import make_ft_app, ft_feasible

__all__ = [
    "NasClass",
    "EP_PARAMS",
    "BT_PARAMS",
    "FT_PARAMS",
    "NAS_EP_PROFILE",
    "NAS_BT_PROFILE",
    "NAS_FT_PROFILE",
    "make_ep_app",
    "make_bt_app",
    "make_ft_app",
    "ft_feasible",
]
