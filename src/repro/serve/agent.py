"""The remote worker agent: ``repro-smm worker --connect HOST:PORT``.

One agent per host (or per slot), dialing *out* to the daemon's TCP
listener — the daemon never needs to reach into worker machines, so the
fleet works across NAT and firewalls with a single open port.  The agent
is a pull loop over the fleet protocol (:mod:`repro.serve.protocol`):

    hello → lease-request → run the cell → heartbeat while it runs
          → worker-result (with the lease's fencing token) → repeat

Cells execute in a supervised :mod:`repro.runx.workproc` child
(:class:`repro.runx.supervisor.WorkerChild`) — the same long-lived
worker the daemon's local pool and the sweep runner drive — so a
segfaulting or chaos-killed cell takes down the child, not the agent,
and the agent reports the infrastructure failure instead of vanishing.
The agent enforces the lease's watchdog deadline and a child-heartbeat
timeout locally (a frozen child is killed and reported), while the
*daemon* enforces agent liveness through lease expiry: if this whole
process is SIGSTOPped, partitioned, or killed, its heartbeats stop, the
lease lapses, and the cell is re-granted elsewhere.

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
from typing import Any, Dict, Optional, Tuple

from repro.runx.supervisor import WorkerChild, WorkerFailed
from repro.serve import protocol
from repro.serve.client import decorrelated_jitter

__all__ = ["AgentConfig", "WorkerAgent", "run"]

log = logging.getLogger(__name__)


@dataclass
class AgentConfig:
    """Everything one agent needs, CLI-shaped."""

    connect: Tuple[str, int] = ("127.0.0.1", 7070)
    name: str = ""
    #: seconds between lease heartbeats while a job runs.
    hb_s: float = 1.0
    #: kill the workproc child if it emits nothing for this long.
    child_hb_timeout_s: float = 10.0
    #: reconnect backoff bounds (decorrelated jitter in between).
    backoff_s: float = 0.5
    max_backoff_s: float = 15.0
    #: socket timeout for daemon round trips.
    io_timeout_s: float = 30.0


class _SessionLost(Exception):
    """The daemon connection died; reconnect with backoff."""


class _Revoked(Exception):
    """The daemon no longer holds our lease on the cell in flight."""


class WorkerAgent:
    """The agent loop; :meth:`run` blocks until :meth:`stop`."""

    def __init__(self, config: AgentConfig):
        self.config = config
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._fp = None
        self._child: Optional[WorkerChild] = None
        #: local tallies, logged on exit (the daemon holds the real ones).
        self.jobs_done = 0
        self.fenced = 0
        self.reconnects = 0

    def stop(self) -> None:
        self._stop.set()

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
        host, port = self.config.connect
        sock = socket.create_connection(
            (host, port), timeout=self.config.io_timeout_s)
        self._sock = sock
        self._fp = sock.makefile("rb")
        rep = self._request({
            "op": "worker-hello", "proto": protocol.FLEET_PROTO,
            "name": self.config.name or socket.gethostname(),
            "pid": os.getpid()})
        if not rep.get("ok") or not rep.get("worker_id"):
            raise _SessionLost(
                f"hello refused: {rep.get('message', rep)}")
        return rep["worker_id"]

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
        sleep_s = cfg.backoff_s
        while not self._stop.is_set():
            try:
                worker_id = self._connect()
                log.info("agent: connected to %s:%d as %s",
                         cfg.connect[0], cfg.connect[1], worker_id)
                sleep_s = cfg.backoff_s  # round trip worked: reset
                self._serve_session()
            except _SessionLost as exc:
                log.warning("agent: session lost (%s); reconnecting",
                            exc)
            except OSError as exc:
                log.warning("agent: cannot reach daemon (%s); retrying",
                            exc)
            finally:
                self._close()
                self._abandon_child()
            if self._stop.is_set():
                break
            self.reconnects += 1
            sleep_s = decorrelated_jitter(
                sleep_s, cfg.backoff_s, cfg.max_backoff_s)
            self._stop.wait(sleep_s)
        log.info("agent: stopped (%d jobs, %d fenced, %d reconnects)",
                 self.jobs_done, self.fenced, self.reconnects)
        return 0

    def _serve_session(self) -> None:
        while not self._stop.is_set():
            rep = self._request({"op": "lease-request"})
            lease = rep.get("lease")
            if not lease:
                self._stop.wait(float(rep.get("retry_after", 0.5)))
                continue
            self._run_lease(lease)

    def _abandon_child(self) -> None:
        """Kill any in-flight job: our lease is void, and a re-run of a
        deterministic cell elsewhere is byte-identical."""
        if self._child is not None:
            self._child.close(grace_s=0)
            self._child = None

    def _ensure_child(self) -> WorkerChild:
        if self._child is None or not self._child.alive:
            self._abandon_child()
            self._child = WorkerChild()
        return self._child

    # -- one lease ------------------------------------------------------------
    def _run_lease(self, lease: Dict[str, Any]) -> None:
        cfg = self.config
        digest, token = lease["digest"], lease["token"]
        job = {"kind": "job", "id": digest, "spec": lease["spec"],
               "seed": lease["seed"], "attempt": lease.get("attempt", 0)}
        timeout_s = lease.get("timeout_s")

        def renew() -> None:
            rep = self._request({"op": "worker-heartbeat",
                                 "digest": digest, "token": token})
            if rep.get("lease") != "ok":
                raise _Revoked

        try:
            child = self._ensure_child()
            child.submit(job)
            # Every tick — child beat or idle — keeps the daemon heartbeat
            # on schedule, and a result already in is taken before the
            # tick: a result finished during a freeze must race the
            # daemon's fencing check, not sit behind a heartbeat that
            # would have us discard it silently.
            rec = child.wait_result(
                digest, timeout_s=float(timeout_s) if timeout_s else None,
                silence_s=cfg.child_hb_timeout_s, tick_s=cfg.hb_s,
                on_tick=renew)
        except WorkerFailed as exc:
            self._abandon_child()
            self._deliver(digest, token, {
                "ok": False, "infra": True, "error": str(exc)})
            return
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
                rec = self._child.wait_result(digest, timeout_s=0.5)
            except WorkerFailed:
                self._abandon_child()
                self._deliver(digest, token, {
                    "ok": False, "infra": True,
                    "error": "lease revoked before the cell finished; "
                             "abandoned"})
                return
            self._deliver(digest, token, self._result_fields(rec))
            return
        self._deliver(digest, token, self._result_fields(rec))
        self.jobs_done += 1

    @staticmethod
    def _result_fields(rec: Dict[str, Any]) -> Dict[str, Any]:
        return {k: rec[k] for k in
                ("ok", "value", "error", "failed_in_sim", "fault",
                 "baseline_stats")
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
    try:
        return agent.run()
    finally:
        agent._abandon_child()
