"""UnixBench (§IV.C): the five selected tests, the index scoring, and the
duplex run protocol.

The paper uses a subset of byte-unixbench [8]:

* **Dhrystone** — string manipulations (integer/ALU mix).
* **Whetstone** — floating-point math functions.
* **Pipe Throughput** — single process read/write through a pipe.
* **Pipe-based Context Switching** — two processes ping-ponging an
  increasing integer through a shared pipe.
* **System Call Overhead** — entering/exiting trivial syscalls.

UnixBench's protocol runs each test for a fixed duration, scores
``result / baseline × 10`` against the classic SPARCstation 20-61
baseline, and reports the **geometric mean** as the index; the default
configuration runs everything twice — one copy, then one copy per CPU —
which is where HTT's benefit shows (Figure 2's per-CPU-configuration
series).

* :mod:`index` — scoring machinery.
* :mod:`tests` — the five tests as simulator workload definitions.
* :mod:`runner` — the duplex protocol on a simulated machine.
"""

from repro.apps.unixbench.index import BASELINES, TestScore, IndexResult, geometric_index
from repro.apps.unixbench.tests import UB_TESTS, UbTest
from repro.apps.unixbench.runner import run_unixbench

__all__ = [
    "BASELINES",
    "TestScore",
    "IndexResult",
    "geometric_index",
    "UB_TESTS",
    "UbTest",
    "run_unixbench",
]
