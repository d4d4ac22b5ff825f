"""repro.runx — resilient sweep execution.

The paper's protocol is a large cell matrix (five tables × three SMI
classes × repetitions; two figures sweeping 30+ intervals per CPU
configuration).  This package runs such a matrix as isolated,
serializable units of work so that one crashing, hanging, or diverging
cell costs one cell — not the sweep:

* :mod:`repro.runx.spec` — JSON-able :class:`CellSpec`/:class:`CellResult`
  with position-derived seeds (parallel == serial, bit for bit);
* :mod:`repro.runx.cells` — the executor registry worker subprocesses use,
  and :func:`join_attribution`, which assembles ``--attr`` blocks;
* :mod:`repro.runx.runner` — :class:`SweepRunner`: subprocess crash
  isolation, watchdog timeouts, bounded deterministic retries, ``jobs``-way
  parallelism;
* :mod:`repro.runx.journal` — fsync'd per-cell checkpoints and the atomic
  finalize/resume protocol behind ``repro-smm <cmd> --resume``;
* :mod:`repro.runx.lock` — the advisory single-writer lock that makes two
  concurrent writers on one output path fail fast instead of interleave;
* :mod:`repro.runx.chaos` — the fault-injection harness (kill / hang /
  corrupt / flake plans) CI uses to prove all of the above.
"""

from repro.runx.cells import join_attribution
from repro.runx.journal import (
    Journal,
    iter_records,
    load_resume,
    part_path,
    repair_torn_tail,
)
from repro.runx.lock import LockHeldError, SingleWriterLock
from repro.runx.runner import SweepRunner
from repro.runx.spec import (
    FAILED,
    FAILED_IN_SIM,
    OK,
    CellResult,
    CellSpec,
    seed_free,
)

__all__ = [
    "CellSpec",
    "CellResult",
    "SweepRunner",
    "Journal",
    "LockHeldError",
    "SingleWriterLock",
    "load_resume",
    "part_path",
    "repair_torn_tail",
    "iter_records",
    "OK",
    "FAILED",
    "FAILED_IN_SIM",
    "seed_free",
    "join_attribution",
]
