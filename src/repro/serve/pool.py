"""Supervised worker pool: one worker per slot, bounded-backoff restarts.

Each of the pool's N slots owns one long-lived
:class:`repro.runx.supervisor.WorkerChild` — the supervisor the sweep
runner and the fleet agent drive — and one asyncio task.  The task
loops: take a work order from the shared queue, then hand the blocking
``submit`` + ``wait_result`` to the slot's own executor thread.  The
child ends the attempt one of four ways —

* a ``result`` record: the job is done (ok or in-band failure); deliver.
* EOF: the worker died mid-job (segfault, OOM kill, ``kill -9``); the
  attempt failed with ``infra=True`` and the slot respawns its worker.
* the per-cell watchdog deadline passes (``WorkerTimeout``): the cell
  is hung or diverging; the child is killed, the attempt fails, the
  slot respawns.
* no line inside ``hb_timeout_s`` (``WorkerFrozen``): the *process* is
  frozen (a slow cell keeps beating; a wedged interpreter cannot); same
  treatment.

Respawns are rate-limited with bounded exponential backoff: a worker
that dies at boot (bad install, chaos plan killing everything) costs an
escalating pause instead of a hot crash-loop, and the backoff resets
the moment a worker completes a job.  The pool never decides *job*
fate — every outcome is handed to the daemon's callback, which owns
retry counting and the circuit breaker.  Counters change on the
event-loop thread only (``Counter.inc`` takes no lock); the slot threads
just spawn children and wait on them.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.runx.supervisor import (WorkerChild, WorkerFailed, WorkerFrozen,
                                   WorkerTimeout, worker_env)

__all__ = ["WorkOrder", "Outcome", "WorkerPool"]

log = logging.getLogger(__name__)

#: Pause before the first respawn after a worker death; it doubles with
#: each consecutive infrastructure failure up to MAX_BACKOFF_S.
RESTART_BACKOFF_S = 0.1
MAX_BACKOFF_S = 5.0


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
                 "baseline_stats")

    def __init__(self, ok: bool = False, value: Optional[Dict] = None,
                 error: Optional[str] = None, failed_in_sim: bool = False,
                 fault: Optional[Dict] = None, infra: bool = False,
                 baseline_stats: Optional[Dict] = None):
        self.ok = ok
        self.value = value
        self.error = error
        self.failed_in_sim = failed_in_sim
        self.fault = fault
        #: True when the *infrastructure* failed (worker death, watchdog,
        #: lost heartbeat) rather than the cell itself raising in-band.
        self.infra = infra
        #: the worker's baseline-store hit/miss tally for this job (attr
        #: cells only).  The store itself stays in the worker process;
        #: see repro.obs.attr.baseline.
        self.baseline_stats = baseline_stats

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "Outcome":
        """The outcome a worker ``result`` record (or a fleet agent's
        copy of its fields, which may add ``infra``) describes."""
        ok = bool(rec.get("ok"))
        return cls(
            ok=ok, value=rec.get("value"),
            error=None if ok else str(rec.get("error", "?")),
            failed_in_sim=bool(rec.get("failed_in_sim")),
            fault=rec.get("fault"), infra=bool(rec.get("infra")),
            baseline_stats=rec.get("baseline_stats"))


class _Slot:
    __slots__ = ("index", "child", "state", "job", "jobs_done", "restarts",
                 "garbage")

    def __init__(self, index: int):
        self.index = index
        self.child: Optional[WorkerChild] = None
        self.state = "starting"
        self.job: Optional[str] = None
        self.jobs_done = 0
        self.restarts = 0
        self.garbage = 0  # the child's garbage lines already counted


class WorkerPool:
    """N supervised workproc children feeding on one asyncio queue."""

    def __init__(
        self,
        queue: "asyncio.Queue[WorkOrder]",
        on_result: Callable[[WorkOrder, Outcome], Awaitable[None]],
        size: int = 2,
        timeout_s: Optional[float] = 300.0,
        hb_timeout_s: float = 10.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.queue = queue
        self.on_result = on_result
        self.size = size
        self.timeout_s = timeout_s
        self.hb_timeout_s = hb_timeout_s
        self._slots = [_Slot(i) for i in range(size)]
        self._tasks: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopping = False
        self._env = worker_env()
        m = metrics if metrics is not None else MetricsRegistry()
        self._c_spawned = m.counter(
            "serve.workers.spawned", "worker subprocesses started")
        self._c_restarts = m.counter(
            "serve.workers.restarts", "workers respawned after dying")
        self._c_timeouts = m.counter(
            "serve.jobs.timeouts", "attempts killed by the watchdog")
        self._c_hb_lost = m.counter(
            "serve.workers.hb_lost", "workers killed for missing heartbeats")
        self._c_garbage = m.counter(
            "serve.protocol.garbage", "unparsable lines read from workers")

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        self._executor = ThreadPoolExecutor(
            self.size, thread_name_prefix="serve-slot")
        self._tasks = [asyncio.create_task(
            self._slot_loop(slot), name=f"serve-slot-{slot.index}")
            for slot in self._slots]

    async def stop(self) -> None:
        """Tear the pool down.  Call with the queue drained and no job
        in flight for a graceful stop; anything still running is killed."""
        self._stopping = True
        # A busy slot's thread is blocked in wait_result; killing its
        # child ends that wait with EOF, so the executor can shut down.
        for slot in self._slots:
            if slot.state == "busy" and slot.child is not None:
                slot.child.kill()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        await asyncio.get_running_loop().run_in_executor(None, self._shutdown)
        for slot in self._slots:
            slot.child = None
            slot.state = "stopped"

    def _shutdown(self) -> None:
        """Off the loop: wait out the slot threads (a spawn in flight
        lands its child on the slot), then close every child."""
        if self._executor is not None:
            self._executor.shutdown()
        for slot in self._slots:
            if slot.child is not None:
                slot.child.close()

    def snapshot(self) -> List[Dict[str, Any]]:
        """Status rows for the local slots; ``kind`` distinguishes them
        from the remote fleet leases `repro-smm status` merges in."""
        return [
            {"kind": "local", "slot": s.index,
             "pid": s.child.proc.pid if s.child is not None else None,
             "state": s.state, "job": s.job, "jobs_done": s.jobs_done,
             "restarts": s.restarts}
            for s in self._slots
        ]

    # -- per-slot supervision loop --------------------------------------------
    async def _slot_loop(self, slot: _Slot) -> None:
        try:
            await self._supervise(slot)
        except Exception:  # pragma: no cover — never die silently
            log.exception("slot %d: supervision loop crashed", slot.index)
            raise

    async def _supervise(self, slot: _Slot) -> None:
        loop = asyncio.get_running_loop()
        backoff = RESTART_BACKOFF_S
        while not self._stopping:
            slot.state = "starting"
            try:
                await loop.run_in_executor(self._executor, self._spawn, slot)
            except WorkerFailed as exc:
                log.warning("slot %d: %s", slot.index, exc)
            self._c_spawned.inc()
            while slot.child is not None and not self._stopping:
                slot.state = "idle"
                order = await self.queue.get()
                if order.dead:
                    continue
                slot.state = "busy"
                slot.job = order.digest
                outcome = await self._execute(slot, order)
                slot.job = None
                slot.jobs_done += 1
                if outcome.infra:
                    # killed and reaped by its failure; release its pipes
                    dead, slot.child = slot.child, None
                    slot.garbage = 0
                    await loop.run_in_executor(self._executor, dead.close)
                else:
                    backoff = RESTART_BACKOFF_S
                await self.on_result(order, outcome)
            if not self._stopping:
                slot.state = "backoff"
                slot.restarts += 1
                self._c_restarts.inc()
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, MAX_BACKOFF_S)

    def _spawn(self, slot: _Slot) -> None:
        """Slot thread: boot a worker.  The child lands on the slot here,
        not through the future, so a stop that cancels the wait still
        finds it to close."""
        slot.child = WorkerChild(self._env)

    # -- one attempt ----------------------------------------------------------
    async def _execute(self, slot: _Slot, order: WorkOrder) -> Outcome:
        job: Dict[str, Any] = {
            "kind": "job", "id": order.digest, "spec": order.spec_rec,
            "seed": order.seed, "attempt": order.attempt}
        child = slot.child
        try:
            rec = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._attempt, child, job)
        except WorkerFailed as exc:
            if isinstance(exc, WorkerTimeout):
                self._c_timeouts.inc()
            elif isinstance(exc, WorkerFrozen):
                self._c_hb_lost.inc()
            return Outcome(error=str(exc), infra=True)
        finally:
            # Chaos 'corrupt', a logging handler on stdout, partial
            # writes from a dying worker: the child dropped them.
            seen = child.garbage
            self._c_garbage.inc(seen - slot.garbage)
            slot.garbage = seen
        return Outcome.from_record(rec)

    def _attempt(self, child: WorkerChild, job: Dict[str, Any]
                 ) -> Dict[str, Any]:
        """Slot thread: one job on ``child``, blocking until its result
        record; raises WorkerFailed with the child reaped."""
        child.submit(job)
        return child.wait_result(job["id"], timeout_s=self.timeout_s,
                                 silence_s=self.hb_timeout_s)
