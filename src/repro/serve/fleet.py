"""Daemon-side fleet scheduling: leases, fencing tokens, failure detection.

The daemon's listeners admit two kinds of peers: clients (submit /
status) and **worker agents** (:mod:`repro.serve.agent`) — remote ones
over TCP, and the daemon's own ``--workers N`` in-process agents over
its unix socket.  Every cell runs under a time-bounded *lease*; this
module owns the work orders, the lease table, and the two invariants
that make a multi-host fleet safe to run on hardware that misbehaves:

1. **Leases expire on heartbeat loss.**  Every lease carries a deadline
   on the daemon's *monotonic* clock (never wall-clock — NTP steps and
   suspend/resume must not revoke or immortalize work).  A worker that
   stops heartbeating — killed, frozen under SIGSTOP, or cut off by a
   network partition — loses the lease after ``lease_s`` and the cell is
   re-granted to someone else.  Cells are seed-deterministic, so the
   re-run is byte-identical to the one that was lost.

2. **Fencing tokens make re-granting safe.**  Each grant carries a
   token from a strictly monotonically increasing sequence; the commit
   path accepts a result only if its token matches the digest's
   *current* lease.  A partitioned worker that comes back and delivers
   the result of a long-revoked lease is fenced off — the result is
   discarded and counted, never committed, so a cell can never be
   double-committed or clobbered by a zombie.  Tokens stay monotonic
   across daemon restarts via a persistent epoch (``fleet.fence``):
   every boot claims the next epoch before granting anything, so a
   result computed for a pre-crash daemon can never fence *into* its
   successor either.

The scheduler decides nothing about job fate: expiry hands the work
order back to the daemon, which routes it through the same retry /
quarantine accounting a worker death reported by an agent takes.  Local
and remote agents take the same path, so where a deterministic cell
ran is invisible in every observable result.
"""

from __future__ import annotations

import json
import logging
import os
import time
from typing import Any, Callable, Collection, Dict, List, Optional

from repro.obs.atomic import atomic_write_text
from repro.obs.metrics import MetricsRegistry

__all__ = ["WorkOrder", "Lease", "RemoteWorker", "FleetScheduler",
           "next_fence_epoch"]

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
        #: (quarantine raced a requeue); lease requests skip dead orders.
        self.dead = False


#: Tokens are ``epoch * EPOCH_STRIDE + seq``: strictly increasing within
#: a boot, and any post-restart token beats any pre-restart one.
EPOCH_STRIDE = 1_000_000_000


def next_fence_epoch(state_dir: str) -> int:
    """Claim the next fencing epoch for this state directory.

    Read-increment-write of ``<state_dir>/fleet.fence`` (atomic rename,
    caller holds the daemon's single-writer lock).  A missing or
    corrupt file restarts at epoch 1 — safe only because the journal
    lock guarantees no *live* daemon shares the directory, and a wiped
    state dir has no outstanding leases to fence against.
    """
    path = os.path.join(state_dir, "fleet.fence")
    epoch = 0
    try:
        with open(path, encoding="utf-8") as fp:
            epoch = int(json.load(fp).get("epoch", 0))
    except (OSError, ValueError, TypeError, AttributeError):
        pass
    epoch += 1
    atomic_write_text(path, lambda fp: json.dump({"epoch": epoch}, fp))
    return epoch


class Lease:
    """One granted cell: who runs it, under which token, until when."""

    __slots__ = ("digest", "order", "token", "worker_id", "granted_at",
                 "deadline")

    def __init__(self, digest: str, order: WorkOrder, token: int,
                 worker_id: str, now: float, lease_s: float):
        self.digest = digest
        self.order = order
        self.token = token
        self.worker_id = worker_id
        self.granted_at = now
        self.deadline = now + lease_s


class RemoteWorker:
    """Connection-scoped registration of one agent (remote, or one of the
    daemon's own; either way a peer on a connection)."""

    __slots__ = ("worker_id", "name", "addr", "connected_at", "last_seen",
                 "jobs_done", "leases")

    def __init__(self, worker_id: str, name: str, addr: str, now: float):
        self.worker_id = worker_id
        self.name = name
        self.addr = addr
        self.connected_at = now
        self.last_seen = now
        self.jobs_done = 0
        self.leases: set = set()  # digests currently leased to us


class FleetScheduler:
    """The lease table for one daemon (single event loop, no locking)."""

    def __init__(self, state_dir: str, lease_s: float = 15.0,
                 metrics=None, now: Callable[[], float] = time.monotonic):
        self.lease_s = lease_s
        self._now = now
        self._epoch = next_fence_epoch(state_dir)
        self._seq = 0
        self._conn_seq = 0
        self._leases: Dict[str, Lease] = {}
        self._workers: Dict[str, RemoteWorker] = {}
        m = metrics if metrics is not None else MetricsRegistry()
        self._c_connects = m.counter(
            "serve.fleet.connects", "worker agent hellos accepted, the "
            "daemon's own agents included (reconnects count again)")
        self._c_disconnects = m.counter(
            "serve.fleet.disconnects", "worker agent connections lost")
        self._c_granted = m.counter(
            "serve.fleet.leases.granted", "cell leases granted")
        self._c_expired = m.counter(
            "serve.fleet.leases.expired",
            "leases revoked after heartbeat loss")
        self._c_released = m.counter(
            "serve.fleet.leases.released",
            "leases released by a valid result")
        self._c_fenced = m.counter(
            "serve.fleet.leases.fenced",
            "stale-fencing-token results rejected")
        self._c_heartbeats = m.counter(
            "serve.fleet.heartbeats", "lease heartbeats renewed")

    # -- worker registry ------------------------------------------------------
    def register(self, name: str, addr: str) -> RemoteWorker:
        self._conn_seq += 1
        worker_id = f"{name or 'worker'}#{self._epoch}.{self._conn_seq}"
        worker = RemoteWorker(worker_id, name, addr, self._now())
        self._workers[worker_id] = worker
        self._c_connects.inc()
        log.info("fleet: worker %s connected from %s", worker_id, addr)
        return worker

    def disconnect(self, worker_id: str) -> List[WorkOrder]:
        """Drop a worker; returns the orders of every lease it held
        (revoked immediately — a vanished connection is a failed
        heartbeat we do not have to wait for)."""
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            return []
        self._c_disconnects.inc()
        orders = []
        for digest in list(worker.leases):
            lease = self._leases.get(digest)
            if lease is not None and lease.worker_id == worker_id:
                del self._leases[digest]
                self._c_expired.inc()
                orders.append(lease.order)
        if orders:
            log.warning("fleet: worker %s vanished holding %d lease(s)",
                        worker_id, len(orders))
        return orders

    # -- leases ---------------------------------------------------------------
    def grant(self, worker_id: str, order: WorkOrder) -> Lease:
        """Lease ``order`` to the registered ``worker_id`` under a fresh
        fencing token."""
        worker = self._workers[worker_id]
        self._seq += 1
        lease = Lease(order.digest, order,
                      self._epoch * EPOCH_STRIDE + self._seq,
                      worker_id, self._now(), self.lease_s)
        self._leases[order.digest] = lease
        worker.leases.add(order.digest)
        worker.last_seen = lease.granted_at
        self._c_granted.inc()
        return lease

    def heartbeat(self, worker_id: str, digest: str, token: int) -> bool:
        """Renew a lease; ``False`` means it is gone (expired, fenced,
        or never ours) and the worker must abandon the job."""
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.last_seen = self._now()
        lease = self._leases.get(digest)
        if lease is None or lease.token != token:
            return False
        lease.deadline = self._now() + self.lease_s
        self._c_heartbeats.inc()
        return True

    def take(self, digest: str, token: int) -> Optional[Lease]:
        """Validate-and-release for the commit path: the lease matching
        ``token`` exactly, or ``None`` (stale token → fenced + counted).

        This is the fencing decision.  The caller commits the result
        *only* when this returns the lease.
        """
        lease = self._leases.get(digest)
        if lease is None or lease.token != token:
            self._c_fenced.inc()
            log.warning(
                "fleet: fenced stale result for %s (token %d, current %s)",
                digest, token,
                lease.token if lease is not None else "none")
            return None
        del self._leases[digest]
        worker = self._workers.get(lease.worker_id)
        if worker is not None:
            worker.leases.discard(digest)
            worker.jobs_done += 1
            worker.last_seen = self._now()
        self._c_released.inc()
        return lease

    def expire(self) -> List[Lease]:
        """Pop every lease whose deadline has passed (monotonic clock).
        The caller re-routes each popped order through retry accounting."""
        now = self._now()
        expired = [lease for lease in self._leases.values()
                   if lease.deadline <= now]
        for lease in expired:
            del self._leases[lease.digest]
            worker = self._workers.get(lease.worker_id)
            if worker is not None:
                worker.leases.discard(lease.digest)
            self._c_expired.inc()
            log.warning("fleet: lease on %s expired (worker %s silent "
                        "for %gs)", lease.digest, lease.worker_id,
                        self.lease_s)
        return expired

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leases)

    def workers(self) -> int:
        return len(self._workers)

    def snapshot(self, hide: Collection[str] = ()) -> Dict[str, Any]:
        """Workers and leases, leaving out the workers in ``hide`` (the
        daemon's own agents, which status lists as local rows)."""
        now = self._now()
        return {
            "epoch": self._epoch,
            "workers": [
                {"worker_id": w.worker_id, "name": w.name, "addr": w.addr,
                 "leases": sorted(w.leases), "jobs_done": w.jobs_done,
                 "idle_s": round(now - w.last_seen, 3)}
                for w in self._workers.values() if w.worker_id not in hide
            ],
            "leases": [
                {"digest": lease.digest, "worker_id": lease.worker_id,
                 "token": lease.token,
                 "expires_in_s": round(lease.deadline - now, 3)}
                for lease in self._leases.values()
                if lease.worker_id not in hide
            ],
        }
