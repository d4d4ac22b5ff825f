"""Supervised worker pool: heartbeats, watchdogs, bounded-backoff restarts.

The pool owns N long-lived :mod:`repro.runx.workproc` subprocesses (the
same worker the sweep runner and the fleet agent drive) and one asyncio
task per worker slot.  Each slot loops: take a work order
from the shared queue, hand it to the worker, and watch the worker's
stdout until one of four things happens —

* a ``result`` line: the job is done (ok or in-band failure); deliver.
* EOF: the worker died mid-job (segfault, OOM kill, ``kill -9``); the
  attempt failed with ``infra=True`` and the slot respawns its worker.
* the per-cell watchdog deadline passes: the cell is hung or diverging;
  kill the worker, fail the attempt, respawn.
* heartbeats stop arriving inside ``hb_timeout_s``: the *process* is
  frozen (a slow cell keeps beating; a wedged interpreter cannot); same
  treatment.

Respawns are rate-limited with bounded exponential backoff: a worker
that dies at boot (bad install, chaos plan killing everything) costs an
escalating pause instead of a hot crash-loop, and the backoff resets
the moment a worker completes a job.  The pool never decides *job*
fate — every outcome is handed to the daemon's callback, which owns
retry counting and the circuit breaker.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro.runx.supervisor import BOOT_TIMEOUT_S, spawn_argv, worker_env
from repro.serve.protocol import MAX_LINE

__all__ = ["WorkOrder", "Outcome", "WorkerPool"]

log = logging.getLogger(__name__)


class WorkOrder:
    """One unit the daemon enqueues: a cell attempt."""

    __slots__ = ("digest", "spec_rec", "seed", "attempt", "dead")

    def __init__(self, digest: str, spec_rec: Dict[str, Any], seed: int,
                 attempt: int = 0):
        self.digest = digest
        self.spec_rec = spec_rec
        self.seed = seed
        self.attempt = attempt
        #: set by the daemon when the job turned terminal while queued
        #: (quarantine raced a requeue); slots skip dead orders.
        self.dead = False


class Outcome:
    """What happened to one attempt."""

    __slots__ = ("ok", "value", "error", "failed_in_sim", "fault", "infra",
                 "baselines", "baseline_stats")

    def __init__(self, ok: bool = False, value: Optional[Dict] = None,
                 error: Optional[str] = None, failed_in_sim: bool = False,
                 fault: Optional[Dict] = None, infra: bool = False,
                 baselines: Optional[list] = None,
                 baseline_stats: Optional[Dict] = None):
        self.ok = ok
        self.value = value
        self.error = error
        self.failed_in_sim = failed_in_sim
        self.fault = fault
        #: True when the *infrastructure* failed (worker death, watchdog,
        #: lost heartbeat) rather than the cell itself raising in-band.
        self.infra = infra
        #: fresh shared-baseline records the worker produced, and its
        #: hit/miss tally for this job (attr cells only; see
        #: repro.obs.attr.baseline).
        self.baselines = baselines
        self.baseline_stats = baseline_stats


class _Slot:
    __slots__ = ("index", "proc", "state", "job", "jobs_done", "restarts")

    def __init__(self, index: int):
        self.index = index
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.state = "starting"
        self.job: Optional[str] = None
        self.jobs_done = 0
        self.restarts = 0


class WorkerPool:
    """N supervised workproc subprocesses feeding on one asyncio queue."""

    def __init__(
        self,
        queue: "asyncio.Queue[WorkOrder]",
        on_result: Callable[[WorkOrder, Outcome], Awaitable[None]],
        size: int = 2,
        timeout_s: Optional[float] = 300.0,
        hb_timeout_s: float = 10.0,
        restart_backoff_s: float = 0.1,
        max_backoff_s: float = 5.0,
        metrics=None,
        baseline_source: Optional[Callable[[Dict[str, Any]],
                                           Optional[list]]] = None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.queue = queue
        self.on_result = on_result
        self.size = size
        self.timeout_s = timeout_s
        self.hb_timeout_s = hb_timeout_s
        self.restart_backoff_s = restart_backoff_s
        self.max_backoff_s = max_backoff_s
        self._slots = [_Slot(i) for i in range(size)]
        self._tasks: List[asyncio.Task] = []
        self._stopping = False
        self._env = worker_env()
        #: Called with the spec record as a job is dispatched; returns the
        #: ``[[digest, record], ...]`` baseline seed to attach, or None.
        #: Evaluated at dispatch (not enqueue) time so a job queued behind
        #: the cell that produces its baseline still benefits from it.
        self._baseline_source = baseline_source
        if metrics is not None:
            self._c_spawned = metrics.counter(
                "serve.workers.spawned", "worker subprocesses started")
            self._c_restarts = metrics.counter(
                "serve.workers.restarts", "workers respawned after dying")
            self._c_timeouts = metrics.counter(
                "serve.jobs.timeouts", "attempts killed by the watchdog")
            self._c_hb_lost = metrics.counter(
                "serve.workers.hb_lost",
                "workers killed for missing heartbeats")
            self._c_garbage = metrics.counter(
                "serve.protocol.garbage",
                "unparsable lines read from workers")
        else:
            self._c_spawned = self._c_restarts = self._c_timeouts = None
            self._c_hb_lost = self._c_garbage = None

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        self._tasks = [asyncio.create_task(
            self._slot_loop(slot), name=f"serve-slot-{slot.index}")
            for slot in self._slots]

    async def stop(self) -> None:
        """Tear the pool down.  Call with the queue drained and no job
        in flight for a graceful stop; anything still running is killed."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        for slot in self._slots:
            if slot.proc is not None:
                await self._close_worker(slot.proc)
                slot.proc = None
            slot.state = "stopped"

    def snapshot(self) -> List[Dict[str, Any]]:
        """Status rows for the local slots; ``kind`` distinguishes them
        from the remote fleet leases `repro-smm status` merges in."""
        return [
            {"kind": "local", "slot": s.index,
             "pid": s.proc.pid if s.proc is not None else None,
             "state": s.state, "job": s.job, "jobs_done": s.jobs_done,
             "restarts": s.restarts}
            for s in self._slots
        ]

    # -- per-slot supervision loop --------------------------------------------
    async def _slot_loop(self, slot: _Slot) -> None:
        backoff = self.restart_backoff_s
        try:
            while not self._stopping:
                slot.state = "starting"
                slot.proc = await self._spawn()
                if self._c_spawned is not None:
                    self._c_spawned.inc()
                if not await self._await_ready(slot.proc):
                    await self._close_worker(slot.proc)
                    slot.proc = None
                    slot.state = "backoff"
                    slot.restarts += 1
                    if self._c_restarts is not None:
                        self._c_restarts.inc()
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.max_backoff_s)
                    continue
                alive = True
                while alive and not self._stopping:
                    slot.state = "idle"
                    order = await self.queue.get()
                    if order.dead:
                        continue
                    slot.state = "busy"
                    slot.job = order.digest
                    outcome, alive = await self._execute(slot.proc, order)
                    slot.job = None
                    slot.jobs_done += 1
                    if not outcome.infra:
                        backoff = self.restart_backoff_s
                    await self.on_result(order, outcome)
                # worker died or was killed: respawn after backoff
                if slot.proc is not None:
                    await self._close_worker(slot.proc)
                    slot.proc = None
                if not self._stopping:
                    slot.state = "backoff"
                    slot.restarts += 1
                    if self._c_restarts is not None:
                        self._c_restarts.inc()
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.max_backoff_s)
        except asyncio.CancelledError:
            raise
        except Exception:  # pragma: no cover — supervision must not die
            log.exception("slot %d: supervision loop crashed", slot.index)
            raise

    async def _spawn(self) -> asyncio.subprocess.Process:
        return await asyncio.create_subprocess_exec(
            *spawn_argv(),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=self._env, limit=MAX_LINE,
        )

    async def _await_ready(self, proc: asyncio.subprocess.Process) -> bool:
        try:
            line = await asyncio.wait_for(
                proc.stdout.readline(), BOOT_TIMEOUT_S)
        except asyncio.TimeoutError:
            log.warning("worker pid %s: no ready line, killing", proc.pid)
            return False
        if not line:
            return False
        try:
            return json.loads(line).get("kind") == "ready"
        except ValueError:
            return False

    # -- one attempt ----------------------------------------------------------
    async def _execute(
        self, proc: asyncio.subprocess.Process, order: WorkOrder,
    ) -> tuple:
        """Returns ``(outcome, worker_still_alive)``."""
        job: Dict[str, Any] = {
            "kind": "job", "id": order.digest, "spec": order.spec_rec,
            "seed": order.seed, "attempt": order.attempt}
        if self._baseline_source is not None:
            known = self._baseline_source(order.spec_rec)
            if known:
                job["baselines"] = known
        req = json.dumps(job, separators=(",", ":")) + "\n"
        try:
            proc.stdin.write(req.encode())
            await proc.stdin.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return Outcome(error="worker died before accepting the job",
                           infra=True), False
        loop = asyncio.get_running_loop()
        deadline = (loop.time() + self.timeout_s
                    if self.timeout_s is not None else None)
        while True:
            wait = self.hb_timeout_s
            if deadline is not None:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    await self._kill(proc)
                    if self._c_timeouts is not None:
                        self._c_timeouts.inc()
                    return Outcome(
                        error=f"watchdog timeout after {self.timeout_s:g}s",
                        infra=True), False
                wait = min(wait, remaining)
            try:
                line = await asyncio.wait_for(proc.stdout.readline(), wait)
            except asyncio.TimeoutError:
                if deadline is not None and loop.time() >= deadline:
                    await self._kill(proc)
                    if self._c_timeouts is not None:
                        self._c_timeouts.inc()
                    return Outcome(
                        error=f"watchdog timeout after {self.timeout_s:g}s",
                        infra=True), False
                await self._kill(proc)
                if self._c_hb_lost is not None:
                    self._c_hb_lost.inc()
                return Outcome(
                    error=f"no heartbeat for {self.hb_timeout_s:g}s "
                          "(worker frozen)", infra=True), False
            if not line:
                rc = proc.returncode
                await proc.wait()
                rc = proc.returncode if rc is None else rc
                died = (f"worker killed by signal {-rc}" if rc and rc < 0
                        else f"worker exited with status {rc}")
                return Outcome(error=died + " mid-job", infra=True), False
            try:
                rec = json.loads(line)
            except ValueError:
                # Chaos 'corrupt', a logging handler on stdout, partial
                # writes from a dying worker: count it and keep reading —
                # the watchdog still bounds how long we will.
                if self._c_garbage is not None:
                    self._c_garbage.inc()
                continue
            kind = rec.get("kind")
            if kind == "hb":
                continue
            if kind == "result" and rec.get("id") == order.digest:
                if rec.get("ok"):
                    return Outcome(
                        ok=True, value=rec.get("value"),
                        baselines=rec.get("baselines"),
                        baseline_stats=rec.get("baseline_stats")), True
                return Outcome(
                    error=str(rec.get("error", "?")),
                    failed_in_sim=bool(rec.get("failed_in_sim")),
                    fault=rec.get("fault")), True
            # stale result for a job we already gave up on: drop it.

    async def _kill(self, proc: asyncio.subprocess.Process) -> None:
        try:
            proc.kill()
        except ProcessLookupError:
            pass
        await proc.wait()

    async def _close_worker(self, proc: asyncio.subprocess.Process) -> None:
        """EOF-then-kill: give an idle worker a moment to exit cleanly."""
        if proc.returncode is not None:
            return
        try:
            if proc.stdin is not None:
                proc.stdin.close()
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        try:
            await asyncio.wait_for(proc.wait(), 2.0)
        except asyncio.TimeoutError:
            await self._kill(proc)
