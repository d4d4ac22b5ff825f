"""The persistent cell worker: ``python -m repro.runx.workproc``.

One worker runs many cells: its supervisor,
:class:`repro.runx.supervisor.WorkerChild` — driven by the sweep
runner and by every serve worker agent, local or remote — pays
interpreter start-up and the executor imports once per (re)spawn, not
once per cell.  The protocol is line-delimited JSON:

stdin  ← ``{"kind": "job", "id": ..., "spec": {...CellSpec...},
            "seed": ..., "attempt": ..., "metrics": true?}``
stdout → ``{"kind": "ready", "pid": ...}`` once, after the imports,
         ``{"kind": "hb", "id": ...}`` every beat *while a job runs*,
         ``{"kind": "result", "id": ..., "ok": ...}`` per job.

A result carries the payload (``value``) or the in-band failure
(``error``; ``failed_in_sim`` + ``fault`` for a deterministic in-sim
death), plus — with ``"metrics": true`` — the snapshot of a registry
created for this job alone.
Heartbeats let a supervisor tell a frozen interpreter from a slow cell.
EOF on stdin is the shutdown signal: the worker exits 0.

Chaos composes per job: the worker loads ``$REPRO_CHAOS_PLAN`` once at
boot, and each job consults that plan before executing, so the
kill/hang/corrupt/flake drills that prove the runner prove the daemon
and the fleet too.  A plan file rewritten later reaches only workers
booted after the rewrite.  A fault that kills or wedges the
process is *supposed* to — surviving that is the supervisor's job.

This module must stay off the ``repro.runx`` package's import chain
(``-m`` would find it already imported and warn) and must not import
``repro.serve``: every import here is resident in every worker.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
import threading
import traceback
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:
    from repro.runx.chaos import FaultPlan

__all__ = ["HEARTBEAT_S", "main"]

#: Seconds between heartbeats while a job is executing.  Supervisors'
#: heartbeat timeouts must be a comfortable multiple of this.
HEARTBEAT_S = 0.5


class _Emitter:
    """Serialized line writer: heartbeat thread and main loop share
    stdout, so every line must go out whole."""

    def __init__(self, stream):
        self._stream = stream
        self._lock = threading.Lock()

    def emit(self, rec: Dict[str, Any]) -> None:
        line = json.dumps(rec, separators=(",", ":")) + "\n"
        with self._lock:
            self._stream.write(line)
            self._stream.flush()


def _heartbeat(emitter: _Emitter, active: Dict[str, Optional[str]],
               stop: threading.Event) -> None:
    while not stop.wait(HEARTBEAT_S):
        job_id = active.get("id")
        if job_id is not None:
            try:
                emitter.emit({"kind": "hb", "id": job_id})
            except (OSError, ValueError):  # pragma: no cover — pipe gone
                return


def _malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or ``None`` where there is none."""
    try:
        import ctypes

        trim = ctypes.CDLL(None).malloc_trim
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _run_job(req: Dict[str, Any], emitter: _Emitter,
             plan: Optional[FaultPlan]) -> None:
    from repro.faults import FaultedRunError
    from repro.obs.metrics import MetricsRegistry
    from repro.runx.cells import run_cell
    from repro.runx.chaos import apply_fault

    job_id = req.get("id", "?")
    spec = req.get("spec") or {}
    try:
        seed = int(req["seed"])
        attempt = int(req.get("attempt", 0))
        fn = spec["fn"]
    except (KeyError, TypeError, ValueError) as exc:
        emitter.emit({"kind": "result", "id": job_id, "ok": False,
                      "error": f"bad job request: {exc}"})
        return

    if plan is not None:
        rule = plan.fault_for(spec.get("id", job_id), attempt)
        if rule is not None:
            apply_fault(rule)  # kill never returns; others raise SystemExit

    registry = MetricsRegistry() if req.get("metrics") else None

    result: Dict[str, Any] = {"kind": "result", "id": job_id}
    try:
        result.update(ok=True, value=run_cell(
            fn, spec.get("params", {}), seed, metrics=registry))
    except FaultedRunError as exc:
        # Deterministic in-sim death: terminal, never worth a retry.
        result.update(ok=False, failed_in_sim=True, error=str(exc),
                      fault={"events": exc.events})
    except Exception:
        result.update(ok=False, error=traceback.format_exc(limit=8))
    if registry is not None and (result["ok"] or "failed_in_sim" in result):
        result["metrics"] = registry.snapshot()
    emitter.emit(result)


def main() -> int:
    # A terminal Ctrl-C signals the whole process group; the supervisor
    # alone decides whether that drains the sweep, so in-flight cells
    # finish and are journaled instead of dying with the keystroke.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Import what every job needs before "ready", so a job's watchdog
    # bounds the cell itself, not the imports.
    import repro.faults  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.runx.cells  # noqa: F401
    from repro.runx.chaos import FaultPlan

    plan = FaultPlan.from_env()

    # Everything imported so far lives as long as the worker: move it
    # out of the collector's generations, so the per-job collection
    # below only walks what a cell left behind.
    gc.collect()
    gc.freeze()
    trim = _malloc_trim()

    emitter = _Emitter(sys.stdout)
    active: Dict[str, Optional[str]] = {"id": None}
    stop = threading.Event()
    beater = threading.Thread(
        target=_heartbeat, args=(emitter, active, stop),
        name="workproc-hb", daemon=True)
    beater.start()
    emitter.emit({"kind": "ready", "pid": os.getpid()})
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
        except ValueError:
            print("workproc: unparsable job line", file=sys.stderr)
            continue
        if req.get("kind") == "shutdown":
            break
        if req.get("kind") != "job":
            continue
        active["id"] = str(req.get("id", "?"))
        try:
            _run_job(req, emitter, plan)
        finally:
            active["id"] = None
        # A cell leaves nothing live behind, but its peak stays in the
        # allocator's arenas; hand it back so a long-lived worker's RSS
        # tracks one cell, not the largest cell it ever ran.
        gc.collect()
        if trim is not None:
            trim(0)
    stop.set()
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess
    sys.exit(main())
