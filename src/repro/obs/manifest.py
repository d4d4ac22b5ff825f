"""Run provenance: JSON manifests for table/figure runs.

Hunold & Carpen-Amarie's reproducibility argument applies to simulations
just as much as to hardware benchmarks: a number without its experimental
configuration is unrepeatable.  A :class:`RunManifest` captures everything
needed to re-run the exact cell matrix of a harness invocation —

* the command and its parameters (seed, repetitions, quick/full matrix),
* the package version and the Python that ran it,
* **all fitted calibration constants** (the model's five free scalars plus
  the structural timing constants they interact with),
* the planned cell matrix, and
* per-cell results with wall-clock build times.

Manifests are plain JSON; every ``repro-smm`` table/figure run writes
one (``<subcommand>.manifest.json``, or the path ``--manifest`` names).

Schema v2 (the `repro.runx` resilient runner):

* cells may carry ``id``/``status``/``attempts``/``duration_s``/``seed``
  — everything ``--resume`` needs to skip finished work and re-run the
  rest with the recorded seeds;
* ``mode`` records how the manifest was produced: ``"journal"``
  (checkpointed sweep — while the run is live the same cells exist as
  ``<path>.part.jsonl`` lines) or ``"served"`` (``repro-smm submit``);
* ``elapsed_monotonic_s`` reports honest run duration from a monotonic
  clock (``wall_s`` is kept for v1 compatibility), and resumed runs add
  only their own elapsed time instead of inheriting the killed run's
  wall-clock span;
* files are written atomically (temp + fsync + rename), so an
  interrupted run never leaves a truncated manifest for a later
  ``--resume`` to choke on.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Union

__all__ = ["RunManifest", "calibration_constants", "MANIFEST_SCHEMA"]

#: Bumped whenever the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 2


def calibration_constants() -> Dict:
    """All constants that pin the model's behaviour, keyed by subsystem.

    Everything here is read live from the modules that own it, so a
    manifest always reflects the code that produced the run (constant
    drift shows up as a manifest diff).
    """
    from repro.machine.smm import ENTRY_LATENCY_NS, RELATCH_GAP_NS
    from repro.machine.topology import WYEAST_SPEC, R410_SPEC
    from repro.mpi.network import NetworkSpec
    from repro.sched.scheduler import (
        BALANCE_PERIOD_NS,
        IDLE_BALANCE_NS,
        MISPLACE_SATURATION_NS,
    )
    from repro.apps.nas.params import BT_PARAMS, EP_PARAMS, FT_PARAMS

    net = NetworkSpec()
    work_units = {
        bench: {cls.value: p.work_total for cls, p in params.items()}
        for bench, params in (
            ("EP", EP_PARAMS), ("BT", BT_PARAMS), ("FT", FT_PARAMS),
        )
    }
    return {
        "network": {
            "latency_ns": net.latency_ns,
            "bandwidth_bps": net.bandwidth_bps,
            "memcpy_bps": net.memcpy_bps,
            "sw_overhead_ops": net.sw_overhead_ops,
            "per_byte_ops": net.per_byte_ops,
        },
        "scheduler": {
            "balance_period_ns": BALANCE_PERIOD_NS,
            "idle_balance_ns": IDLE_BALANCE_NS,
            "misplace_saturation_ns": MISPLACE_SATURATION_NS,
        },
        "smm": {
            "entry_latency_ns": ENTRY_LATENCY_NS,
            "relatch_gap_ns": RELATCH_GAP_NS,
        },
        "machine": {
            "wyeast_base_hz": WYEAST_SPEC.base_hz,
            "r410_base_hz": R410_SPEC.base_hz,
        },
        "work_units": work_units,
    }


@dataclass
class RunManifest:
    """Provenance record for one harness invocation."""

    command: str
    params: Dict = field(default_factory=dict)
    matrix: List[Dict] = field(default_factory=list)
    cells: List[Dict] = field(default_factory=list)
    version: str = ""
    python: str = ""
    platform: str = ""
    created_unix: float = 0.0
    wall_s: Optional[float] = None
    schema: int = MANIFEST_SCHEMA
    #: "journal" = checkpointed `repro.runx` sweep (cells mirror the
    #: journal's records); "served" = results fetched from a daemon.
    mode: str = "journal"

    def __post_init__(self) -> None:
        if not self.version:
            import repro

            self.version = repro.__version__
        if not self.python:
            self.python = sys.version.split()[0]
        if not self.platform:
            self.platform = platform.platform()
        if not self.created_unix:
            self.created_unix = time.time()
        self._t0 = time.perf_counter()

    # -- recording -----------------------------------------------------------
    def plan_cell(self, **spec) -> None:
        """Declare one cell of the run matrix before measuring it."""
        self.matrix.append(dict(spec))

    def add_cell(self, label: str, **result) -> None:
        """Record one measured cell: its label, result values, and the
        wall-clock second mark (relative to manifest creation) at which
        it completed.  v2 cells additionally pass ``status``/``attempts``/
        ``duration_s``/``seed`` (the resilient runner does this for every
        cell, making the manifest a resume source)."""
        self.cells.append({
            "label": label,
            "at_wall_s": round(time.perf_counter() - self._t0, 6),
            **result,
        })

    def set_values(self, values: Dict) -> None:
        """Replace the ``value`` of each recorded cell ``values`` names by
        label — the payloads as the sweep assembled them (attribution
        joined), where :meth:`add_cell` saw each cell's own payload."""
        for cell in self.cells:
            if cell["label"] in values:
                cell["value"] = values[cell["label"]]

    # -- output ---------------------------------------------------------------
    def elapsed_monotonic_s(self) -> float:
        """Seconds of honest (monotonic-clock) run time so far."""
        return round(time.perf_counter() - self._t0, 6)

    def to_dict(self) -> Dict:
        elapsed = self.elapsed_monotonic_s()
        return {
            "schema": self.schema,
            "mode": self.mode,
            "command": self.command,
            "params": self.params,
            "version": self.version,
            "python": self.python,
            "platform": self.platform,
            "created_unix": self.created_unix,
            "calibration": calibration_constants(),
            "matrix": self.matrix,
            "cells": self.cells,
            "wall_s": self.wall_s if self.wall_s is not None else elapsed,
            "elapsed_monotonic_s": elapsed,
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, dest: Union[str, IO[str]]) -> None:
        """Serialize; for path destinations the write is atomic (an
        interrupted run never leaves a truncated manifest)."""
        if isinstance(dest, str):
            from repro.obs.atomic import atomic_write_text

            atomic_write_text(dest, lambda fp: fp.write(self.to_json() + "\n"))
        else:
            dest.write(self.to_json() + "\n")
