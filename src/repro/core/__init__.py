"""repro.core — the paper's primary contribution, as a library.

* :mod:`smi` — SMI noise sources (the short/long duration classes and the
  jiffy-interval trigger discipline of §III.B).
* :mod:`driver` — the "Blackbox SMI" driver model: configuration
  interface and TSC-based latency self-measurement.
* :mod:`detector` — hwlat-style spin-gap SMI detection with the BIOSBITS
  150 µs threshold; has a host-native twin for real machines.
* :mod:`experiment` — the paper's methodology: the repetitions'
  positional seeds.
* :mod:`calibration` — fits of machine/network constants to the paper's
  SMM-0 base times.
"""

from repro.core.smi import SmiProfile, SmiSource, SmiDurations
from repro.core.driver import BlackboxSmiDriver
from repro.core.detector import GapDetector, DetectorReport

__all__ = [
    "SmiProfile",
    "SmiSource",
    "SmiDurations",
    "BlackboxSmiDriver",
    "GapDetector",
    "DetectorReport",
]
