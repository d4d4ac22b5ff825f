"""The resilient sweep engine: crash-isolated, parallel, resumable.

``SweepRunner.run(specs)`` executes every :class:`CellSpec` as an
isolated unit of work and returns ``{cell_id: CellResult}`` — *always*,
no matter what individual cells do.  The failure model:

* **Crash isolation** — with ``isolation="process"`` (the default) each
  runner thread drives one persistent :mod:`repro.runx.workproc` child
  (spawned on the thread's first cell, so a fully resumed sweep spawns
  nothing); a segfault, OOM kill, or corrupted reply fails only the
  attempt in flight — it becomes ``CellResult(status=FAILED)`` or a
  retry, and the child is killed and respawned before the next attempt.
  An in-band cell exception leaves the child serving.
* **Watchdog timeouts** — ``timeout_s`` bounds each attempt's execution
  in the child (not its spawn or imports); an overrunning child is
  killed.
* **Bounded retries** — a failed attempt is retried up to ``retries``
  times after a deterministic exponential backoff
  (``backoff_s * 2**(attempt-1)``).  Every attempt uses the spec's own
  ``base_seed`` — the rule the serve daemon follows too — so a retried
  cell's value is byte-identical to a clean run's.
* **Checkpointing** — every terminal result is appended to the
  :class:`~repro.runx.journal.Journal` (fsync per line) and mirrored to
  the v2 manifest; ``completed=`` feeds previously journaled results
  back in, and the runner skips them (counted as resumed).
* **Parallelism** — ``jobs`` threads, each with its own child, run
  concurrently.  Cells launch largest-first
  (:func:`~repro.runx.cells.dispatch_order`, a per-cell cost estimate
  from the spec's params), so the sweep's longest cells do not start
  last and run alone while the other slots idle.  Cell seeds are
  position-derived, so results are independent of launch order and
  ``--jobs N`` output is bit-identical to ``--jobs 1``.  The manifest
  matrix stays in spec order; the journal and the manifest's ``cells``
  follow completion order.
* **Graceful drain** — :meth:`SweepRunner.request_drain` (the CLI wires
  it to SIGINT/SIGTERM) stops *launching* cells while in-flight cells
  finish and are journaled normally; ``run()`` then returns only the
  completed results, so the journal is never torn and ``--resume``
  picks up exactly where the drain stopped.  Children ignore SIGINT, so
  a terminal Ctrl-C reaching the whole process group drains too.
* **Cleanup** — :meth:`SweepRunner.close` (or ``with SweepRunner(...)``)
  shuts every child down and reaps it; a closed runner respawns children
  on its next ``run()``.

``isolation="inline"`` executes cells in-process (no subprocess, no
timeout enforcement, no chaos) — the fast path for unit tests and for
callers that already trust their cells.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.runx.cells import dispatch_order
from repro.runx.spec import (
    FAILED,
    FAILED_IN_SIM,
    OK,
    CellResult,
    CellSpec,
)

__all__ = ["SweepRunner"]

log = logging.getLogger(__name__)


def _close_children(children: Set) -> None:
    for child in list(children):
        child.close()
    children.clear()


class SweepRunner:
    """Execute cell specs with crash isolation, retries, and checkpoints."""

    def __init__(
        self,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.05,
        isolation: str = "process",
        metrics=None,
        manifest=None,
        journal=None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if isolation not in ("process", "inline"):
            raise ValueError(f"unknown isolation {isolation!r}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.isolation = isolation
        self.metrics = metrics
        self.manifest = manifest
        self.journal = journal
        self.progress = progress
        self._lock = threading.Lock()
        self._drain = threading.Event()
        self._done = 0
        self._total = 0
        self._env: Optional[Dict[str, str]] = None  # built on first spawn
        self._pool: Optional[ThreadPoolExecutor] = None  # reused across runs
        #: Each runner thread's persistent worker child lives in
        #: ``_local.child``; ``_children`` holds them all for close(),
        #: which also runs if the runner is dropped unclosed.
        self._local = threading.local()
        self._children: Set = set()
        weakref.finalize(self, _close_children, self._children)
        if metrics is not None:
            self._c_started = metrics.counter(
                "runx.cells.started", "cells whose first attempt launched")
            self._c_ok = metrics.counter("runx.cells.ok", "cells that succeeded")
            self._c_failed = metrics.counter(
                "runx.cells.failed", "cells that exhausted all attempts")
            self._c_retried = metrics.counter(
                "runx.cells.retried", "retry attempts launched")
            self._c_resumed = metrics.counter(
                "runx.cells.resumed", "cells satisfied from a prior journal")
            self._c_timeout = metrics.counter(
                "runx.cells.timeouts", "attempts killed by the watchdog")
            self._c_failed_in_sim = metrics.counter(
                "runx.cells.failed_in_sim",
                "cells killed deterministically by injected model faults")
        else:
            self._c_started = self._c_ok = self._c_failed = None
            self._c_retried = self._c_resumed = self._c_timeout = None
            self._c_failed_in_sim = None

    # -- public entry ---------------------------------------------------------
    def run(
        self,
        specs: Sequence[CellSpec],
        completed: Optional[Dict[str, CellResult]] = None,
    ) -> Dict[str, CellResult]:
        ids = [s.id for s in specs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate cell ids in sweep: {dupes[:5]}")
        results: Dict[str, CellResult] = {}
        todo: List[CellSpec] = []
        self._total = len(specs)
        self._done = 0
        # Digest fast path: a journaled OK result whose content digest
        # matches a spec satisfies it even under a different id (renamed
        # cells, re-labelled sweeps) — no worker is spawned.  A seed-free
        # spec's digest has no seed, so its result also serves the same
        # cell at another seed.
        by_digest: Dict[str, CellResult] = {}
        if completed:
            for res in completed.values():
                if res.ok and res.digest:
                    by_digest.setdefault(res.digest, res)
        for spec in specs:
            prior = completed.get(spec.id) if completed else None
            if prior is None and by_digest:
                match = by_digest.get(spec.digest())
                if match is not None:
                    prior = CellResult.from_record(
                        dict(match.to_record(), id=spec.id))
            if prior is not None and prior.ok:
                prior.resumed = True
                results[spec.id] = prior
                if self._c_resumed is not None:
                    self._c_resumed.inc()
                self._record(prior, journal=False)
            else:
                todo.append(spec)
        todo = dispatch_order(todo)
        if self.jobs == 1 or len(todo) <= 1:
            for spec in todo:
                res = self._run_cell(spec)
                if res is not None:
                    results[spec.id] = res
        else:
            pool = self._pool
            if pool is None:
                # One executor for the runner's lifetime: retries and
                # repeated run() calls (resume loops) reuse its threads
                # instead of paying pool teardown/spin-up per pass.
                self._pool = pool = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="sweep")
            for spec, res in zip(todo, pool.map(self._run_cell, todo)):
                if res is not None:
                    results[spec.id] = res
        return results

    # -- graceful drain -------------------------------------------------------
    def request_drain(self) -> None:
        """Stop launching new cells; in-flight cells finish and are
        journaled.  Thread- and signal-safe (sets an Event)."""
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def close(self) -> None:
        """Release the thread pool, then shut down and reap every worker
        child (idempotent; a later ``run()`` spawns fresh children)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        _close_children(self._children)

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one cell, all attempts -----------------------------------------------
    def _run_cell(self, spec: CellSpec) -> Optional[CellResult]:
        if self._drain.is_set():
            # Draining: the cell is neither run nor journaled, so a later
            # --resume sees it as missing work and re-runs it.
            return None
        if self._c_started is not None:
            with self._lock:
                self._c_started.inc()
        t0 = time.monotonic()
        errors: List[str] = []
        value = None
        fault = None
        seed = spec.base_seed
        attempt = 0
        while True:
            if attempt > 0:
                delay = self.backoff_s * (2 ** (attempt - 1))
                if delay > 0:
                    time.sleep(delay)
                if self._c_retried is not None:
                    with self._lock:
                        self._c_retried.inc()
            value, err, fault = self._attempt(spec, attempt, seed)
            if err is None:
                break
            errors.append(f"attempt {attempt} (seed {seed}): {err}")
            log.warning("cell %s %s", spec.id, errors[-1])
            if fault is not None:
                # Killed by injected model-level faults: deterministic —
                # the same seed and plan would die the same way, so
                # retrying would only replay the failure.  Terminal.
                break
            if attempt >= self.retries:
                break
            attempt += 1
        duration = time.monotonic() - t0
        if value is not None:
            result = CellResult(
                id=spec.id, status=OK, value=value, attempts=attempt + 1,
                duration_s=round(duration, 6), seed=seed,
                attempt_errors=errors, digest=spec.digest(),
            )
        elif fault is not None:
            result = CellResult(
                id=spec.id, status=FAILED_IN_SIM, attempts=attempt + 1,
                duration_s=round(duration, 6), seed=seed,
                error=errors[-1] if errors else "failed in simulation",
                attempt_errors=errors, digest=spec.digest(), fault=fault,
            )
        else:
            result = CellResult(
                id=spec.id, status=FAILED, attempts=attempt + 1,
                duration_s=round(duration, 6), seed=seed,
                error=errors[-1] if errors else "unknown failure",
                attempt_errors=errors, digest=spec.digest(),
            )
        with self._lock:
            if result.ok:
                if self._c_ok is not None:
                    self._c_ok.inc()
            elif result.status == FAILED_IN_SIM:
                if self._c_failed_in_sim is not None:
                    self._c_failed_in_sim.inc()
            elif self._c_failed is not None:
                self._c_failed.inc()
        self._record(result, journal=True)
        return result

    # -- one attempt ----------------------------------------------------------
    def _attempt(
        self, spec: CellSpec, attempt: int, seed: int,
    ) -> Tuple[Optional[Dict], Optional[str], Optional[Dict]]:
        """Returns ``(value, error, fault)``: ``(value, None, None)`` on
        success, ``(None, error, None)`` on a retryable failure, and
        ``(None, error, fault)`` when injected model-level faults killed
        the simulation (terminal — never retried)."""
        if self.isolation == "inline":
            from repro.faults import FaultedRunError
            from repro.runx.cells import run_cell

            try:
                return run_cell(spec.fn, spec.params, seed,
                                metrics=self.metrics), None, None
            except FaultedRunError as exc:
                return None, str(exc), {"events": exc.events}
            except Exception:
                return (None,
                        "cell raised:\n" + traceback.format_exc(limit=8),
                        None)
        return self._attempt_process(spec, attempt, seed)

    def _child(self):
        """This thread's worker child, spawned (or respawned after a
        failure killed the last one) on demand."""
        from repro.runx.supervisor import WorkerChild, worker_env

        child = getattr(self._local, "child", None)
        if child is not None and child.alive:
            return child
        if child is not None:  # already killed and reaped by its failure
            child.close()
        with self._lock:
            self._children.discard(child)
            if self._env is None:
                self._env = worker_env()
        child = WorkerChild(self._env)
        self._local.child = child
        with self._lock:
            self._children.add(child)
        return child

    def _attempt_process(
        self, spec: CellSpec, attempt: int, seed: int,
    ) -> Tuple[Optional[Dict], Optional[str], Optional[Dict]]:
        from repro.runx.supervisor import WorkerFailed, WorkerTimeout

        job: Dict = {"kind": "job", "id": spec.id, "spec": spec.to_record(),
                     "seed": seed, "attempt": attempt}
        if self.metrics is not None:
            job["metrics"] = True
        try:
            child = self._child()
            child.submit(job)
            reply = child.wait_result(spec.id, timeout_s=self.timeout_s)
        except WorkerTimeout as exc:
            if self._c_timeout is not None:
                with self._lock:
                    self._c_timeout.inc()
            return None, str(exc), None
        except WorkerFailed as exc:
            return None, str(exc), None
        if self.metrics is not None and reply.get("metrics"):
            with self._lock:
                self.metrics.merge_snapshot(reply["metrics"])
        if not reply.get("ok"):
            if reply.get("failed_in_sim"):
                return (None, str(reply.get("error", "failed in simulation")),
                        reply.get("fault") or {"events": []})
            return None, "cell raised:\n" + str(reply.get("error", "?")), None
        return reply.get("value"), None, None

    # -- bookkeeping ----------------------------------------------------------
    def _record(self, result: CellResult, journal: bool) -> None:
        with self._lock:
            self._done += 1
            if journal and self.journal is not None:
                self.journal.append(result)
            if self.manifest is not None:
                rec = result.to_record()
                rec.pop("kind", None)  # "id" stays: it is the resume key
                self.manifest.add_cell(result.id, **rec)
            if self.progress is not None:
                if result.ok:
                    flag = ""
                elif result.status == FAILED_IN_SIM:
                    flag = " FAILED-IN-SIM"
                else:
                    flag = " FAILED"
                src = " (resumed)" if result.resumed else ""
                self.progress(
                    f"[{self._done}/{self._total}] {result.id}{flag}{src}")
