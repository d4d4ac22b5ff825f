"""Worker agents: the one driver of a worker process in ``repro.serve``.

An agent dials *out* to the daemon and pulls work over the fleet
protocol (:mod:`repro.serve.protocol`).  Remote agents
(``repro-smm worker --connect HOST:PORT``, one per host or per slot)
use the daemon's TCP listener, so the daemon never needs to reach into
worker machines and the fleet works across NAT and firewalls with a
single open port.  ``repro-smm serve --workers N`` starts N agents as
threads inside the daemon, dialing its own unix socket.  Either way the
loop is the same:

    hello → boot a worker → lease-request (long-polls the queue)
          → run the cell → heartbeat while it runs
          → worker-result (with the lease's fencing token) → repeat

Cells execute in a supervised :mod:`repro.runx.workproc` child
(:class:`repro.runx.supervisor.WorkerChild`, as in the sweep runner),
so a segfaulting or chaos-killed cell takes down the child, not the
agent.  The child boots *before* the agent asks for a lease, so one
that cannot boot never uses up a cell's attempt; after a worker death
the agent respawns with bounded backoff (0.1 s, doubling to 5 s, reset
by the first job without an infrastructure failure).  The timing comes
from the daemon: heartbeats every ``hb_s`` of the hello reply, and each
lease's watchdog (``timeout_s``) and child-silence limit
(``silence_s``).  A dead, hung or frozen child is killed and reported
with its ``cause`` (``died``, ``timeout``, ``frozen``) and the lines it
garbled, which the daemon counts for every agent alike.  The *daemon*
enforces agent liveness through lease expiry: if this whole process is
SIGSTOPped, partitioned, or killed, its heartbeats stop, the lease
lapses, and the cell is re-granted elsewhere.

The failure-detector contract on this side is **reconnect with bounded
exponential backoff and decorrelated jitter** (shared with
:mod:`repro.serve.client`): a dead or restarting daemon costs an
escalating, jittered pause, never a hot reconnect loop, and the backoff
resets on the first successful round trip.  On any session loss the
in-flight job is abandoned (child killed): the lease is void — the
daemon either expired it already or will — and a deterministic cell
re-run elsewhere is byte-identical, so abandoning is always safe.

Delivery discipline after a freeze: the run loop always tries to send a
finished result *before* its next heartbeat, and a revoked lease is
always answered with a ``worker-result`` under the (now stale) token —
the finished value if the child got that far, an infra abandonment
record otherwise.  The daemon's token check fences either one
(``accepted: false``), so its fenced counter observes every zombie
return — which is exactly the partition drill
``scripts/fleet_smoke.py`` runs.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.runx.supervisor import (WorkerChild, WorkerFailed, WorkerFrozen,
                                   WorkerTimeout)
from repro.serve import protocol
from repro.serve.client import decorrelated_jitter

__all__ = ["AgentConfig", "WorkerAgent", "run"]

log = logging.getLogger(__name__)

#: Pause before the first respawn after a worker death; it doubles with
#: each consecutive infrastructure failure up to MAX_BACKOFF_S.
RESTART_BACKOFF_S = 0.1
MAX_BACKOFF_S = 5.0


@dataclass
class AgentConfig:
    """Everything one agent needs, CLI-shaped."""

    #: the daemon: ``(host, port)`` over TCP, or a unix socket path.
    connect: Union[Tuple[str, int], str] = ("127.0.0.1", 7070)
    name: str = ""
    #: reconnect backoff bounds (decorrelated jitter in between).
    backoff_s: float = 0.5
    max_backoff_s: float = 15.0
    #: socket timeout for daemon round trips.
    io_timeout_s: float = 30.0


class _SessionLost(Exception):
    """The daemon connection died; reconnect with backoff."""


class _Revoked(Exception):
    """The daemon no longer holds our lease on the cell in flight."""


#: The ``cause`` a worker-result reports for each way a child fails.
_CAUSES = {WorkerTimeout: "timeout", WorkerFrozen: "frozen"}


class WorkerAgent:
    """The agent loop; :meth:`run` blocks until :meth:`stop`."""

    def __init__(self, config: AgentConfig):
        self.config = config
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._fp = None
        self._child: Optional[WorkerChild] = None
        #: lease heartbeat period; the daemon's hello reply sets it.
        self._hb_s = 1.0
        #: pause before the next spawn (None: no worker death pending).
        self._respawn_s: Optional[float] = None
        #: children booted that no lease-request has reported yet.
        self._spawned = 0
        #: the session's fleet identity, set by the hello reply.
        self.worker_id: Optional[str] = None
        #: what a status row shows (the daemon reads its own agents').
        self.state = "starting"
        self.job: Optional[str] = None
        self.jobs_done = 0
        self.restarts = 0
        self.fenced = 0
        self.reconnects = 0

    @property
    def pid(self) -> Optional[int]:
        """The worker child's pid, while one is up."""
        child = self._child
        return child.proc.pid if child is not None else None

    def stop(self, abandon: bool = False) -> None:
        """Stop after the cell in flight.  With ``abandon``, stop now:
        shut the session and kill the child, so a hung cell is never
        waited out (the lease is void; the daemon requeues the cell)."""
        self._stop.set()
        if abandon:
            sock, child = self._sock, self._child
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            if child is not None:
                child.kill()

    # -- transport ------------------------------------------------------------
    def _request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """One fleet round trip on the session connection."""
        try:
            self._sock.sendall(protocol.encode(req))
            line = self._fp.readline()
        except (OSError, ValueError) as exc:
            raise _SessionLost(str(exc)) from exc
        if not line:
            raise _SessionLost("daemon closed the connection")
        try:
            rep = protocol.decode(line)
        except ValueError as exc:
            raise _SessionLost(f"garbled reply: {exc}") from exc
        return rep

    def _connect(self) -> str:
        target, timeout = self.config.connect, self.config.io_timeout_s
        if isinstance(target, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(target)
            except OSError:
                sock.close()
                raise
        else:
            sock = socket.create_connection(target, timeout=timeout)
        self._sock = sock
        self._fp = sock.makefile("rb")
        rep = self._request({
            "op": "worker-hello", "proto": protocol.FLEET_PROTO,
            "name": self.config.name or socket.gethostname(),
            "pid": os.getpid()})
        if not rep.get("ok") or not rep.get("worker_id"):
            raise _SessionLost(
                f"hello refused: {rep.get('message', rep)}")
        self._hb_s = float(rep.get("hb_s") or self._hb_s)
        self.worker_id = rep["worker_id"]
        return self.worker_id

    def _close(self) -> None:
        for closer in (self._fp, self._sock):
            try:
                if closer is not None:
                    closer.close()
            except OSError:
                pass
        self._fp = self._sock = None

    # -- the loop -------------------------------------------------------------
    def run(self) -> int:
        """Connect-serve-reconnect until stopped.  Exit 0 on stop."""
        cfg = self.config
        where = (cfg.connect if isinstance(cfg.connect, str)
                 else "%s:%d" % cfg.connect)
        sleep_s = cfg.backoff_s
        while not self._stop.is_set():
            try:
                worker_id = self._connect()
                log.info("agent: connected to %s as %s", where, worker_id)
                sleep_s = cfg.backoff_s  # round trip worked: reset
                self._serve_session()
            except (_SessionLost, OSError) as exc:
                if not self._stop.is_set():
                    log.warning("agent: lost the daemon (%s); "
                                "reconnecting", exc)
            finally:
                self._close()
                self._abandon_child()
            if self._stop.is_set():
                break
            self.reconnects += 1
            sleep_s = decorrelated_jitter(
                sleep_s, cfg.backoff_s, cfg.max_backoff_s)
            self._stop.wait(sleep_s)
        self.state = "stopped"
        log.info("agent: stopped (%d jobs, %d fenced, %d reconnects)",
                 self.jobs_done, self.fenced, self.reconnects)
        return 0

    def _serve_session(self) -> None:
        while self._ensure_child():
            self.state = "idle"
            req: Dict[str, Any] = {"op": "lease-request"}
            spawned = self._spawned
            if spawned:
                req["spawned"] = spawned
            # Parks on the daemon's queue for up to its long-poll bound.
            rep = self._request(req)
            self._spawned -= spawned
            if not rep.get("ok"):
                raise _SessionLost(
                    f"lease-request refused: {rep.get('message', rep)}")
            lease = rep.get("lease")
            if lease:
                self._run_lease(lease)
            elif rep.get("retry_after"):
                self._stop.wait(float(rep["retry_after"]))

    def _ensure_child(self) -> bool:
        """Boot a worker unless a live one is waiting, first sitting out
        the respawn backoff a worker death left.  False once stopped."""
        while not self._stop.is_set():
            if self._child is not None:
                if self._child.alive:
                    return True
                self._worker_died()  # died between jobs
            self._abandon_child()
            if self._respawn_s is not None:
                self.state = "backoff"
                if self._stop.wait(self._respawn_s):
                    break
            self.state = "starting"
            self._spawned += 1
            try:
                self._child = WorkerChild()
            except WorkerFailed as exc:
                log.warning("agent: %s", exc)
                self._worker_died()
        return False

    def _worker_died(self) -> None:
        self.restarts += 1
        self._respawn_s = (RESTART_BACKOFF_S if self._respawn_s is None
                           else min(2 * self._respawn_s, MAX_BACKOFF_S))

    def _abandon_child(self) -> None:
        """Kill and reap the child: our lease (if any) is void, and a
        re-run of a deterministic cell elsewhere is byte-identical."""
        child, self._child = self._child, None
        if child is not None:
            child.close(grace_s=0)

    # -- one lease ------------------------------------------------------------
    def _run_lease(self, lease: Dict[str, Any]) -> None:
        digest, token = lease["digest"], lease["token"]
        job = {"kind": "job", "id": digest, "spec": lease["spec"],
               "seed": lease["seed"], "attempt": lease.get("attempt", 0)}
        timeout_s = lease.get("timeout_s")
        silence_s = lease.get("silence_s")

        def renew() -> None:
            rep = self._request({"op": "worker-heartbeat",
                                 "digest": digest, "token": token})
            if rep.get("lease") != "ok":
                raise _Revoked

        child = self._child
        garbage = child.garbage
        self.state, self.job = "busy", digest
        try:
            child.submit(job)
            # Every tick — child beat or idle — keeps the daemon heartbeat
            # on schedule, and a result already in is taken before the
            # tick: a result finished during a freeze must race the
            # daemon's fencing check, not sit behind a heartbeat that
            # would have us discard it silently.
            rec = child.wait_result(
                digest, timeout_s=float(timeout_s) if timeout_s else None,
                silence_s=float(silence_s) if silence_s else None,
                tick_s=self._hb_s, on_tick=renew)
            result = self._result_fields(rec)
            self._respawn_s = None  # a job went through: backoff resets
        except WorkerFailed as exc:
            self._abandon_child()
            self._worker_died()
            result = {"ok": False, "error": str(exc),
                      "cause": _CAUSES.get(type(exc), "died")}
        except _Revoked:
            # We were frozen, partitioned, or too slow and the cell
            # belongs to someone else now.  If the child finished
            # *during* the freeze its result may still be racing the
            # reader thread — wait briefly and deliver whatever we have
            # (the finished result, or an infra abandonment if the cell
            # never ran to completion).  Either way the daemon's token
            # check is the arbiter, not us: it fences the stale token,
            # and its fenced counter sees every zombie return.
            log.warning("agent: lease on %s revoked", digest)
            try:
                result = self._result_fields(
                    child.wait_result(digest, timeout_s=0.5))
            except WorkerFailed:
                self._abandon_child()
                result = {"ok": False,
                          "error": "lease revoked before the cell "
                                   "finished; abandoned"}
        finally:
            self.state, self.job = "idle", None
            self.jobs_done += 1
        # Chaos 'corrupt', a logging handler on stdout, partial writes
        # from a dying worker: lines the child dropped.
        if child.garbage > garbage:
            result["garbage"] = child.garbage - garbage
        self._deliver(digest, token, result)

    @staticmethod
    def _result_fields(rec: Dict[str, Any]) -> Dict[str, Any]:
        return {k: rec[k] for k in
                ("ok", "value", "error", "failed_in_sim", "fault")
                if k in rec}

    def _deliver(self, digest: str, token: int,
                 result: Dict[str, Any]) -> None:
        rep = self._request({"op": "worker-result", "digest": digest,
                             "token": token, "result": result})
        if not rep.get("accepted"):
            # Fenced: the daemon already re-granted (or restarted).  The
            # computed value dies here — exactly-once effect is theirs.
            log.warning("agent: result for %s fenced as stale; discarded",
                        digest)
            self.fenced += 1


def run(config: AgentConfig) -> int:
    """Blocking entry point behind ``repro-smm worker``."""
    agent = WorkerAgent(config)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: agent.stop())
    return agent.run()
