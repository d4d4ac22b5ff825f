"""The sweep-serving daemon: accept, dedup, shard, cache, survive.

``ServeDaemon`` is the long-lived composition of the package's parts:
an asyncio server (unix socket + optional TCP) whose worker agents lease
cells from a durable queue, with a content-addressed cache in front.
The life of a submitted cell:

1. **Quarantine check** — a digest the circuit breaker has tripped on
   answers immediately with its quarantine record; it never reaches a
   worker again until the operator clears the quarantine.
2. **Cache probe** — a verified cache entry answers immediately
   (``cached: true``); corruption is evicted and falls through to 4.
3. **Coalesce** — if the digest is already in flight, the submission
   becomes one more waiter on the existing job (``coalesced: true``):
   a thousand identical requests cost one simulation.
4. **Accept** — the job is fsync'd to the durable queue *before* the
   client hears "accepted", then enqueued for the agents.  If accepting
   would push outstanding work past ``max_pending``, the whole submit
   is refused with ``saturated`` + ``retry_after`` instead (bounded
   queues: the daemon sheds load, it does not fall over).

Results flow back through :meth:`_on_result`: success writes the cache
entry, then the ``done`` record (write-then-ack: a crash between the
two replays the job, finds the cache entry, and completes it without
recompute — at-least-once execution, exactly-once effect).  An
infrastructure failure (worker death, watchdog, lost heartbeat, lost
lease) requeues the attempt with the *same seed* — cells are
deterministic, so a retried kill is byte-identical to an uninterrupted
run.  A cell that keeps poisoning workers trips the circuit breaker
after ``max_attempts`` and is durably quarantined rather than allowed
to crash-loop the workers.

``kill -9`` of the daemon is a designed-for event, not an error path:
the lock dies with the process, the next boot replays the queue journal,
completes anything the cache already holds, and re-runs the rest.
SIGTERM instead drains gracefully: stop accepting, finish in-flight
work, compact the journal, release everything.

There is one dispatch path.  Every cell runs on a worker agent
(:mod:`repro.serve.agent`) under a lease, through the fleet ops
(``worker-hello`` / ``lease-request`` / ``worker-heartbeat`` /
``worker-result``).  ``--workers N`` starts N agents as threads in this
process that dial its own unix socket; remote agents dial the TCP
listener (``--workers 0`` runs a pure-fleet daemon).  A
``lease-request`` parks on the queue for up to :data:`LEASE_POLL_S`, so
every waiting agent, local or remote, is one FIFO of parked requests and
a fresh cell is picked up at once.  :mod:`repro.serve.fleet` owns the
lease table and fencing tokens; this module routes worker deaths,
expired leases and dropped connections through one retry/quarantine
accounting, and counts watchdog kills, heartbeat losses, restarts,
spawns and garbled lines from what every agent reports, so a cell's
observable fate is identical wherever it ran.  During a SIGTERM drain
leases keep being granted and renewed — accepted work is finished by
whoever holds capacity — while new submits are refused.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.runx.cells import dispatch_order
from repro.runx.journal import JournalWriteError
from repro.runx.lock import SingleWriterLock
from repro.runx.spec import CellSpec
from repro.serve import protocol
from repro.serve.agent import AgentConfig, WorkerAgent
from repro.serve.cache import ResultCache
from repro.serve.fleet import FleetScheduler, WorkOrder
from repro.serve.queue import DurableQueue, QueueState

__all__ = ["ServeConfig", "ServeDaemon", "run"]

log = logging.getLogger(__name__)

#: Crude per-cell cost estimate behind saturation ``retry_after`` hints.
EST_CELL_S = 2.0

#: How long a ``lease-request`` waits on an empty queue before it
#: answers "no lease" (well under an agent's 30 s socket timeout).
LEASE_POLL_S = 1.0


@dataclass
class ServeConfig:
    """Everything the daemon needs to know, CLI-shaped."""

    state_dir: str = "serve-state"
    socket_path: Optional[str] = None  # default: <state_dir>/serve.sock
    tcp: Optional[Tuple[str, int]] = None
    #: in-process worker agents; 0 runs a pure-fleet daemon (remote
    #: agents only).
    workers: int = 2
    #: per-cell watchdog and child-silence limit, sent with every lease.
    timeout_s: Optional[float] = 300.0
    hb_timeout_s: float = 10.0
    max_attempts: int = 3
    max_pending: int = 256
    #: revoke a lease after this long without a heartbeat (monotonic
    #: clock; agents beat every lease_s / 5).
    lease_s: float = 15.0

    def resolved_socket(self) -> str:
        return self.socket_path or os.path.join(self.state_dir, "serve.sock")


class _Job:
    """One in-flight digest and everyone waiting on it."""

    __slots__ = ("digest", "spec", "failures", "waiters", "order")

    def __init__(self, digest: str, spec: CellSpec):
        self.digest = digest
        self.spec = spec
        self.failures = 0  # infra-failed attempts so far
        self.waiters: List[asyncio.Future] = []
        self.order: Optional[WorkOrder] = None


class ServeDaemon:
    """See the module docstring; one instance per state directory."""

    def __init__(self, config: ServeConfig,
                 metrics: Optional[MetricsRegistry] = None):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = SingleWriterLock(
            os.path.join(config.state_dir, "daemon.lock"))
        self.cache: Optional[ResultCache] = None
        self.queue_journal: Optional[DurableQueue] = None
        self.fleet: Optional[FleetScheduler] = None
        #: the in-process agents and the threads that run them.
        self._agents: List[WorkerAgent] = []
        self._agent_threads: List[threading.Thread] = []
        #: connection tasks parked in a lease-request long-poll.
        self._parked: Set[asyncio.Task] = set()
        self._lease_reaper_task: Optional[asyncio.Task] = None
        self._jobs_q: "asyncio.Queue[WorkOrder]" = asyncio.Queue()
        self._inflight: Dict[str, _Job] = {}
        self._quarantined: Dict[str, Dict[str, Any]] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._started_monotonic = 0.0
        m = self.metrics
        self._c_submits = m.counter(
            "serve.submits", "submit requests handled")
        self._c_accepted = m.counter(
            "serve.jobs.accepted", "jobs durably accepted")
        self._c_completed = m.counter(
            "serve.jobs.completed", "jobs completed ok")
        self._c_failed = m.counter(
            "serve.jobs.failed", "jobs terminally failed (e.g. in-sim)")
        self._c_quarantined = m.counter(
            "serve.jobs.quarantined", "jobs circuit-broken after "
            "poisoning workers repeatedly")
        self._c_requeued = m.counter(
            "serve.jobs.requeued", "attempts requeued after an "
            "infrastructure failure")
        self._c_replayed = m.counter(
            "serve.jobs.replayed", "jobs recovered from the durable "
            "queue at boot")
        self._c_coalesced = m.counter(
            "serve.coalesced", "submissions folded onto an in-flight "
            "identical job")
        self._c_saturated = m.counter(
            "serve.rejected.saturated", "submits refused with retry_after "
            "because the queue was full")
        self._c_rej_drain = m.counter(
            "serve.rejected.draining", "submits refused during drain")
        self._c_conns = m.counter(
            "serve.connections", "client connections accepted")
        self._c_journal_errors = m.counter(
            "serve.journal.write_errors", "journal appends refused by "
            "the disk (ENOSPC, I/O error) and mapped to retryable "
            "replies or logged")
        self._c_q_cleared = m.counter(
            "serve.quarantine.cleared", "quarantined cells forgotten by "
            "the clear-quarantine operator op")
        # What agents, local and remote alike, report about their
        # worker children (lease-request and worker-result fields).
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
        cfg = self.config
        os.makedirs(cfg.state_dir, exist_ok=True)
        self._lock.acquire()  # LockHeldError if another daemon owns the dir
        self.cache = ResultCache(
            os.path.join(cfg.state_dir, "cache"), metrics=self.metrics)
        self.queue_journal = DurableQueue(
            os.path.join(cfg.state_dir, "queue.jsonl"))
        state = self.queue_journal.replay()
        self._quarantined = dict(state.quarantined)
        self.queue_journal.compact(state)
        # The fencing epoch is claimed before any lease can be granted:
        # tokens must already beat every pre-restart token by the time a
        # partitioned worker from the previous life reconnects.
        self.fleet = FleetScheduler(
            cfg.state_dir, lease_s=cfg.lease_s, metrics=self.metrics)
        self._replay_pending(state.pending)
        self._lease_reaper_task = asyncio.create_task(
            self._lease_reaper(), name="serve-lease-reaper")
        sock = cfg.resolved_socket()
        if os.path.exists(sock):
            # We hold the state-dir lock, so a leftover socket is from a
            # dead daemon: safe to clear.
            os.unlink(sock)
        self._servers.append(
            await asyncio.start_unix_server(
                self._handle_conn, path=sock, limit=protocol.MAX_LINE))
        if cfg.tcp is not None:
            host, port = cfg.tcp
            self._servers.append(
                await asyncio.start_server(
                    self._handle_conn, host=host, port=port,
                    limit=protocol.MAX_LINE))
        for slot in range(cfg.workers):
            agent = WorkerAgent(AgentConfig(connect=sock, name=f"local{slot}"))
            thread = threading.Thread(target=agent.run, daemon=True,
                                      name=f"serve-agent-{slot}")
            thread.start()
            self._agents.append(agent)
            self._agent_threads.append(thread)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.drain()))
        self._started_monotonic = time.monotonic()
        log.info("serving on %s (%d workers, %d jobs replayed)",
                 sock, cfg.workers, len(state.pending))

    def _replay_pending(self, pending: Dict[str, Dict[str, Any]]) -> None:
        """Boot-time recovery: every accepted-but-unfinished job either
        completes from the cache (the crash hit between cache write and
        journal ack) or re-enters the queue."""
        assert self.cache is not None and self.queue_journal is not None
        for digest, spec_rec in pending.items():
            try:
                spec = CellSpec.from_record(spec_rec)
            except (KeyError, TypeError, ValueError):
                log.warning("replay: dropping malformed job %s", digest)
                self.queue_journal.record_failed(
                    digest, "malformed spec in queue journal")
                continue
            if self.cache.get(spec) is not None:
                self.queue_journal.record_done(digest)
                continue
            self._enqueue(_Job(digest, spec))
            self._c_replayed.inc()

    def _enqueue(self, job: _Job) -> None:
        """Put ``job`` in flight and queue its first attempt."""
        job.order = WorkOrder(job.digest, job.spec.to_record(),
                              job.spec.base_seed)
        self._inflight[job.digest] = job
        self._idle.clear()
        self._jobs_q.put_nowait(job.order)

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish what is accepted,
        compact, release.  Idempotent; SIGTERM/SIGINT and the ``drain``
        op all land here."""
        if self._draining:
            return
        self._draining = True
        log.info("drain: %d jobs in flight (%d leased to the fleet)",
                 len(self._inflight),
                 len(self.fleet) if self.fleet is not None else 0)
        # Leases keep being granted, renewed, and reaped while we wait:
        # remotely leased work is accepted work, and expiry mid-drain
        # must still requeue it to whoever has capacity.
        await self._idle.wait()
        if self._lease_reaper_task is not None:
            self._lease_reaper_task.cancel()
            await asyncio.gather(self._lease_reaper_task,
                                 return_exceptions=True)
            self._lease_reaper_task = None
        await self._stop_agents()
        # Nothing is owed any more: hang up on agents parked in a
        # long-poll instead of waiting their poll out.
        for task in list(self._parked):
            task.cancel()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        if self.queue_journal is not None:
            state = self.queue_journal.replay()
            self.queue_journal.compact(state)
        sock = self.config.resolved_socket()
        try:
            os.unlink(sock)
        except OSError:
            pass
        self._lock.release()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def _stop_agents(self) -> None:
        """Stop the in-process agents now: each kills its child in flight
        (a hung cell is never waited out), and their threads are joined
        off the loop."""
        for agent in self._agents:
            agent.stop(abandon=True)
        loop = asyncio.get_running_loop()
        for thread in self._agent_threads:
            await loop.run_in_executor(None, thread.join)

    # -- connection handling --------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._c_conns.inc()
        # One mutable session per connection: a worker-hello binds a
        # worker_id to it, and losing the connection *is* the fleet's
        # fast failure detector — every lease the worker held is revoked
        # and requeued without waiting out the heartbeat deadline.
        conn: Dict[str, Any] = {"worker_id": None, "peer": "?"}
        try:
            peer = writer.get_extra_info("peername")
            if peer:
                conn["peer"] = (f"{peer[0]}:{peer[1]}"
                                if isinstance(peer, tuple) else str(peer))
        except OSError:  # pragma: no cover
            pass
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._reply(writer, protocol.error_reply(
                        protocol.E_TOO_LARGE,
                        f"request line exceeds {protocol.MAX_LINE} bytes"))
                    break
                if not line:
                    break
                try:
                    req = protocol.decode(line)
                except ValueError as exc:
                    await self._reply(writer, protocol.error_reply(
                        protocol.E_BAD_REQUEST, f"unparsable request: {exc}"))
                    continue
                await self._reply(writer, await self._dispatch(req, conn))
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing owed
        finally:
            if conn["worker_id"] is not None and self.fleet is not None:
                for order in self.fleet.disconnect(conn["worker_id"]):
                    await self._on_result(order, {
                        "error": f"worker {conn['worker_id']} "
                                 "disconnected mid-lease"})
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, rep: Dict) -> None:
        writer.write(protocol.encode(rep))
        await writer.drain()

    async def _dispatch(self, req: Dict[str, Any],
                        conn: Dict[str, Any]) -> Dict[str, Any]:
        op = req.get("op")
        if op == "submit":
            return await self._op_submit(req)
        if op == "status":
            return self._op_status()
        if op == "metrics":
            return {"ok": True, "prom": self.metrics.render_prom()}
        if op == "drain":
            asyncio.ensure_future(self.drain())
            return {"ok": True, "draining": True}
        if op == "clear-quarantine":
            return self._op_clear_quarantine()
        if op == "worker-hello":
            return self._op_worker_hello(req, conn)
        if op == "lease-request":
            return await self._op_lease_request(req, conn)
        if op == "worker-heartbeat":
            return self._op_worker_heartbeat(req, conn)
        if op == "worker-result":
            return await self._op_worker_result(req, conn)
        return protocol.error_reply(
            protocol.E_BAD_REQUEST, f"unknown op {op!r}")

    # -- submit ---------------------------------------------------------------
    async def _op_submit(self, req: Dict[str, Any]) -> Dict[str, Any]:
        self._c_submits.inc()
        if self._draining:
            self._c_rej_drain.inc()
            return protocol.error_reply(
                protocol.E_DRAINING, "daemon is draining; resubmit to its "
                "successor")
        raw_cells = req.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            return protocol.error_reply(
                protocol.E_BAD_REQUEST, "submit needs a non-empty 'cells' "
                "list of CellSpec records")
        try:
            specs = [CellSpec.from_record(rec) for rec in raw_cells]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return protocol.error_reply(
                protocol.E_BAD_REQUEST, f"malformed cell spec: {exc}")
        assert self.cache is not None and self.queue_journal is not None

        # Classify every cell before accepting any: backpressure is
        # all-or-nothing so a refused submit has no side effects.
        entries: List[Dict[str, Any]] = []
        to_wait: List[Tuple[Dict[str, Any], asyncio.Future]] = []
        new_jobs: List[CellSpec] = []
        seen_new: Dict[str, _Job] = {}
        stats = {"cached": 0, "coalesced": 0, "submitted": 0,
                 "quarantined": 0}
        for spec in specs:
            digest = spec.digest()
            entry: Dict[str, Any] = {"id": spec.id, "digest": digest}
            if digest in self._quarantined:
                qrec = self._quarantined[digest]
                entry.update(status="quarantined",
                             error=qrec.get("error", "quarantined"),
                             attempts=qrec.get("attempts"))
                stats["quarantined"] += 1
                entries.append(entry)
                continue
            job = self._inflight.get(digest) or seen_new.get(digest)
            if job is None:
                value = self.cache.get(spec)
                if value is not None:
                    entry.update(status="ok", value=value, cached=True)
                    stats["cached"] += 1
                    entries.append(entry)
                    continue
                job = _Job(digest, spec)
                seen_new[digest] = job
                new_jobs.append(spec)
                stats["submitted"] += 1
            else:
                entry["coalesced"] = True
                stats["coalesced"] += 1
                self._c_coalesced.inc()
            if req.get("wait", True):
                fut = asyncio.get_running_loop().create_future()
                job.waiters.append(fut)
                to_wait.append((entry, fut))
            entries.append(entry)

        outstanding = len(self._inflight) + len(new_jobs)
        if new_jobs and outstanding > self.config.max_pending:
            self._c_saturated.inc()
            retry = outstanding * EST_CELL_S / max(1, self.config.workers)
            return protocol.error_reply(
                protocol.E_SATURATED,
                f"{len(self._inflight)} jobs outstanding (max "
                f"{self.config.max_pending}); retry later",
                retry_after=retry)

        try:
            # Largest-first, like the sweep runner: every agent leases
            # from one FIFO, so enqueue order is launch order.  Reply
            # entries stay in submit order.
            for spec in dispatch_order(new_jobs):
                digest = spec.digest()
                # Durability first: the journal record is fsync'd before
                # the job exists anywhere volatile.
                self.queue_journal.record_job(digest, spec.to_record())
                self._enqueue(seen_new[digest])
                self._c_accepted.inc()
        except JournalWriteError as exc:
            # The disk refused the fsync (full, read-only, dying).  Cells
            # journaled before the failure stay accepted — they are
            # durable and a retried submit coalesces onto them — but the
            # submit as a whole is refused with retryable backpressure
            # rather than letting the accept loop crash.
            self._c_journal_errors.inc()
            log.error("submit: durable queue refused a write (%s); "
                      "shedding load", exc)
            return protocol.error_reply(
                protocol.E_UNAVAILABLE,
                f"durable queue cannot accept writes ({exc}); retry later",
                retry_after=5.0)

        if not req.get("wait", True):
            return {"ok": True, "stats": stats,
                    "pending": len(self._inflight)}
        for entry, fut in to_wait:
            entry.update(await fut)
        return {"ok": True, "cells": entries, "stats": stats}

    # -- result flow ----------------------------------------------------------
    def _journal_safe(self, write, what: str) -> None:
        """Best-effort *terminal*-record append: a full disk must not
        turn a finished result into a daemon crash.  The cache (or the
        in-memory quarantine map) already holds the state; losing the
        record costs at worst one replayed-and-cache-satisfied job after
        the next restart."""
        try:
            write()
        except JournalWriteError as exc:
            self._c_journal_errors.inc()
            log.error("journal %s record lost (result kept): %s", what, exc)

    async def _on_result(self, order: WorkOrder,
                         rec: Dict[str, Any]) -> None:
        """Settle one attempt from its worker ``result`` fields, as an
        agent delivered them or ``{"error": ...}`` for a lost lease."""
        job = self._inflight.get(order.digest)
        if job is None or job.order is not order:
            return  # already terminal (e.g. quarantine raced a kill)
        assert self.cache is not None and self.queue_journal is not None
        if rec.get("ok"):
            value = rec.get("value")
            # Cache write *then* journal ack: a crash between the two
            # replays the job and completes it from the cache.
            self.cache.put(job.spec, value,
                           provenance={"attempts": job.failures + 1})
            self._journal_safe(
                lambda: self.queue_journal.record_done(order.digest),
                "done")
            self._c_completed.inc()
            self._resolve(job, {"status": "ok", "value": value,
                                "cached": False,
                                "attempts": job.failures + 1})
            return
        error = str(rec.get("error", "?"))
        if rec.get("failed_in_sim"):
            self._journal_safe(
                lambda: self.queue_journal.record_failed(
                    order.digest, error), "failed")
            self._c_failed.inc()
            res = {"status": "failed-in-sim", "error": error,
                   "attempts": job.failures + 1}
            if rec.get("fault") is not None:
                res["fault"] = rec["fault"]
            self._resolve(job, res)
            return
        job.failures += 1
        if job.failures >= self.config.max_attempts:
            self._journal_safe(
                lambda: self.queue_journal.record_quarantine(
                    order.digest, job.failures, error),
                "quarantine")
            self._quarantined[order.digest] = {
                "kind": "quarantine", "id": order.digest,
                "attempts": job.failures, "error": error}
            self._c_quarantined.inc()
            log.warning("quarantined %s after %d poisoned attempts: %s",
                        order.digest, job.failures, error)
            self._resolve(job, {"status": "quarantined", "error": error,
                                "attempts": job.failures})
            return
        # Infrastructure failure: requeue with the SAME seed — cells are
        # deterministic, so the eventual value is byte-identical to a
        # run that was never interrupted.
        order.attempt = job.failures
        self._c_requeued.inc()
        log.info("requeue %s (attempt %d): %s",
                 order.digest, order.attempt, error)
        self._jobs_q.put_nowait(order)

    def _resolve(self, job: _Job, result: Dict[str, Any]) -> None:
        self._inflight.pop(job.digest, None)
        if job.order is not None:
            job.order.dead = True
        for fut in job.waiters:
            if not fut.done():
                fut.set_result(result)
        job.waiters = []
        if not self._inflight:
            self._idle.set()

    # -- fleet (worker agents, local and remote) -------------------------------
    async def _lease_reaper(self) -> None:
        """Revoke leases whose holders went silent.  Runs for the whole
        daemon life (including drain: leased work is accepted work, and
        expiry mid-drain must still requeue it); each expired order
        re-enters the exact retry/quarantine accounting a worker death
        takes."""
        interval = max(0.05, min(1.0, self.config.lease_s / 4))
        while True:
            await asyncio.sleep(interval)
            if self.fleet is None:
                continue
            for lease in self.fleet.expire():
                await self._on_result(lease.order, {
                    "error": f"lease expired (worker {lease.worker_id} "
                             f"silent for {self.config.lease_s:g}s)"})

    def _op_worker_hello(self, req: Dict[str, Any],
                         conn: Dict[str, Any]) -> Dict[str, Any]:
        if self.fleet is None:
            return protocol.error_reply(
                protocol.E_UNAVAILABLE, "fleet scheduler not started",
                retry_after=1.0)
        proto = req.get("proto")
        if proto != protocol.FLEET_PROTO:
            # Versioned handshake: refuse rather than mis-speak, so a
            # fleet can be upgraded one side at a time.
            return protocol.error_reply(
                protocol.E_BAD_REQUEST,
                f"unsupported fleet proto {proto!r} "
                f"(daemon speaks {protocol.FLEET_PROTO})")
        if conn["worker_id"] is not None:
            return protocol.error_reply(
                protocol.E_BAD_REQUEST, "connection already said hello")
        worker = self.fleet.register(
            str(req.get("name") or ""), conn["peer"])
        conn["worker_id"] = worker.worker_id
        return {"ok": True, "proto": protocol.FLEET_PROTO,
                "worker_id": worker.worker_id,
                "lease_s": self.config.lease_s,
                "hb_s": max(0.2, self.config.lease_s / 5)}

    async def _next_order(self) -> Optional[WorkOrder]:
        """The next live order, waiting up to :data:`LEASE_POLL_S` for
        one, or ``None``.  Parked requests wait in FIFO order, and a
        timed-out wait takes nothing off the queue.  Tombstoned orders
        (killed by a racing quarantine or terminal result) are
        skipped."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + LEASE_POLL_S
        task = asyncio.current_task()
        self._parked.add(task)
        try:
            while True:
                try:
                    order = await asyncio.wait_for(
                        self._jobs_q.get(), deadline - loop.time())
                except asyncio.TimeoutError:
                    return None
                if not order.dead:
                    return order
        finally:
            self._parked.discard(task)

    async def _op_lease_request(self, req: Dict[str, Any],
                                conn: Dict[str, Any]) -> Dict[str, Any]:
        wid = conn["worker_id"]
        if wid is None or self.fleet is None:
            return protocol.error_reply(
                protocol.E_BAD_REQUEST, "lease-request before worker-hello")
        self._c_spawned.inc(_count(req, "spawned"))
        order = await self._next_order()
        if order is None:
            return {"ok": True, "lease": None}
        # This connection's worker is registered until its handler
        # exits, which cannot happen while the handler waits here.
        lease = self.fleet.grant(wid, order)
        body: Dict[str, Any] = {
            "digest": order.digest, "spec": order.spec_rec,
            "seed": order.seed, "attempt": order.attempt,
            "token": lease.token, "lease_s": self.config.lease_s,
            "silence_s": self.config.hb_timeout_s,
        }
        if self.config.timeout_s:
            body["timeout_s"] = self.config.timeout_s
        return {"ok": True, "lease": body}

    def _op_worker_heartbeat(self, req: Dict[str, Any],
                             conn: Dict[str, Any]) -> Dict[str, Any]:
        wid = conn["worker_id"]
        if wid is None or self.fleet is None:
            return protocol.error_reply(
                protocol.E_BAD_REQUEST, "heartbeat before worker-hello")
        try:
            token = int(req.get("token") or 0)
        except (TypeError, ValueError):
            return protocol.error_reply(protocol.E_BAD_REQUEST, "bad token")
        alive = self.fleet.heartbeat(
            wid, str(req.get("digest") or ""), token)
        return {"ok": True, "lease": "ok" if alive else "revoked"}

    async def _op_worker_result(self, req: Dict[str, Any],
                                conn: Dict[str, Any]) -> Dict[str, Any]:
        wid = conn["worker_id"]
        if wid is None or self.fleet is None:
            return protocol.error_reply(
                protocol.E_BAD_REQUEST, "worker-result before worker-hello")
        digest = str(req.get("digest") or "")
        try:
            token = int(req.get("token") or 0)
        except (TypeError, ValueError):
            return protocol.error_reply(protocol.E_BAD_REQUEST, "bad token")
        result = req.get("result")
        if not isinstance(result, dict):
            result = {"error": "malformed worker result"}
        # What happened to the worker happened whether or not the lease
        # is still ours, so it is counted before the fencing check.
        self._count_worker_events(result)
        # THE fencing decision: commit only under the current token.  A
        # stale token (lease expired and re-granted, or granted by a
        # pre-restart epoch) is acknowledged but never committed —
        # exactly-once effect regardless of how many hosts raced.
        lease = self.fleet.take(digest, token)
        if lease is None:
            return {"ok": True, "accepted": False}
        await self._on_result(lease.order, result)
        return {"ok": True, "accepted": True}

    def _count_worker_events(self, result: Dict[str, Any]) -> None:
        """An agent's child that died, overran its watchdog or went
        silent is killed and replaced: ``cause`` says which."""
        cause = result.get("cause")
        if cause is not None:
            self._c_restarts.inc()
            if cause == "timeout":
                self._c_timeouts.inc()
            elif cause == "frozen":
                self._c_hb_lost.inc()
        self._c_garbage.inc(_count(result, "garbage"))

    # -- operator ops ----------------------------------------------------------
    def _op_clear_quarantine(self) -> Dict[str, Any]:
        """Forget every circuit-broken cell — in memory *and* in the
        durable journal, so the next boot cannot resurrect them — and
        let resubmissions compute again."""
        assert self.queue_journal is not None
        cleared = sorted(self._quarantined)
        self._quarantined = {}
        state = QueueState(pending={
            digest: job.spec.to_record()
            for digest, job in self._inflight.items()})
        try:
            self.queue_journal.compact(state)
        except OSError as exc:
            self._c_journal_errors.inc()
            return protocol.error_reply(
                protocol.E_UNAVAILABLE,
                f"could not rewrite the queue journal: {exc}",
                retry_after=5.0)
        if cleared:
            self._c_q_cleared.inc(len(cleared))
            log.info("quarantine cleared: %d cell(s) forgotten",
                     len(cleared))
        return {"ok": True, "cleared": len(cleared), "digests": cleared}

    def tcp_endpoint(self) -> Optional[Tuple[str, int]]:
        """The actually-bound TCP address — resolves a requested port 0,
        which tests and the smoke drills use to avoid port races."""
        for server in self._servers:
            for sock in server.sockets or []:
                if sock.family in (socket.AF_INET, socket.AF_INET6):
                    addr = sock.getsockname()
                    return addr[0], addr[1]
        return None

    # -- status ---------------------------------------------------------------
    def _op_status(self) -> Dict[str, Any]:
        assert self.cache is not None
        counters = {
            name: inst.value
            for name, inst in (
                (n, self.metrics.get(n)) for n in self.metrics.names())
            if name.startswith("serve.")
            and hasattr(inst, "value")
        }
        return {
            "ok": True,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "draining": self._draining,
            "inflight": len(self._inflight),
            "queued": self._jobs_q.qsize(),
            "quarantined": len(self._quarantined),
            "workers": [
                {"kind": "local", "slot": slot, "pid": agent.pid,
                 "state": agent.state, "job": agent.job,
                 "jobs_done": agent.jobs_done, "restarts": agent.restarts}
                for slot, agent in enumerate(self._agents)],
            "fleet": (self.fleet.snapshot(
                hide={agent.worker_id for agent in self._agents})
                      if self.fleet is not None else None),
            "cache": {"entries": len(self.cache), "root": self.cache.root},
            "counters": counters,
        }


def _count(rec: Dict[str, Any], key: str) -> int:
    """A non-negative tally an agent reported (0 when absent or bad)."""
    try:
        return max(0, int(rec.get(key) or 0))
    except (TypeError, ValueError):
        return 0


def run(config: ServeConfig) -> int:
    """Blocking entry point behind ``repro-smm serve``."""

    async def _amain() -> None:
        daemon = ServeDaemon(config)
        await daemon.start()
        print(f"serve: listening on {config.resolved_socket()}",
              file=sys.stderr, flush=True)
        await daemon.wait_stopped()

    asyncio.run(_amain())
    return 0
