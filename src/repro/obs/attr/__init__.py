"""repro.obs.attr — the noise-attribution engine.

Turns "this cell slowed down by 96%" into *why*: a per-rank event
capture layer (:mod:`capture`) hooks the MPI communicator, the
interconnect, and the SMM machinery purely as a recorder; post-run
analysis classifies every blocking wait (:mod:`profile`), walks the
inter-rank dependency graph for the job's critical path
(:mod:`critical`), and decomposes the slowdown versus the zero-SMI
baseline into direct theft / induced wait / contention / residual with a
conservation check (:mod:`decompose`).  :func:`attribute_cell` runs the
whole pipeline for one table cell; ``repro-smm explain`` renders it.
"""

from repro.obs.attr.capture import AttrCapture
from repro.obs.attr.profile import RunProfile, build_profile
from repro.obs.attr.critical import CriticalPath, critical_path
from repro.obs.attr.decompose import Decomposition, decompose, projection
from repro.obs.attr.explain import CellAttribution, attribute_cell, render_explain

__all__ = [
    "AttrCapture",
    "RunProfile",
    "build_profile",
    "CriticalPath",
    "critical_path",
    "Decomposition",
    "decompose",
    "projection",
    "CellAttribution",
    "attribute_cell",
    "render_explain",
]
