"""repro.apps — the paper's workloads.

* :mod:`nas` — phase-level models of the NAS Parallel Benchmarks the MPI
  study measures: EP, BT, FT, classes A/B/C (§III.C).
* :mod:`convolve` — the multithreaded convolution kernel of §IV.B as a
  simulator workload (cache-friendly / cache-unfriendly configurations).
* :mod:`unixbench` — the five UnixBench tests of §IV.C with the index
  scoring, as simulator profiles.
"""

from repro.apps.base import AppResult

__all__ = ["AppResult"]
