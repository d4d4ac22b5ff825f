"""The serve wire format: one JSON object per line, both directions.

Line-delimited JSON keeps every layer inspectable with ``nc``/``socat``
and keeps framing trivial: a request is one line, its reply is one line.
Requests carry an ``op``; replies always carry ``ok``.  Error replies
are *typed* — a machine-readable ``error`` code plus a human ``message``
— so clients can distinguish "back off and retry" from "this will never
work":

* ``saturated`` — the daemon's bounded queue is full; the reply carries
  ``retry_after`` seconds (HTTP-429 semantics).
* ``unavailable`` — the daemon's durable journal cannot accept writes
  right now (disk full, I/O error); retryable with ``retry_after``,
  exactly like ``saturated``.
* ``draining`` — the daemon is shutting down gracefully; resubmit to
  its successor.
* ``bad-request`` — malformed line or unknown op; never retry.
* ``too-large`` — request line exceeded :data:`MAX_LINE`; never retry.

Client ops:

* ``submit`` — ``{"op": "submit", "cells": [specrec...], "wait": bool}``.
  With ``wait`` the reply arrives when every cell is terminal and
  carries per-cell ``status``/``value``/``cached``/``attempts``;
  without, it acknowledges acceptance counts immediately.
* ``status`` — queue depth, worker states, fleet leases, cache and
  counter snapshot.
* ``metrics`` — the daemon's registry in Prometheus exposition text.
* ``drain`` — begin graceful shutdown (same path as SIGTERM).
* ``clear-quarantine`` — operator op: forget every circuit-broken cell
  (in memory and in the durable journal) so resubmissions compute again.

Fleet ops (worker agents: remote ones over the TCP listener, the
daemon's own ``--workers`` agents over its unix socket; see
:mod:`repro.serve.fleet` and :mod:`repro.serve.agent`).  The handshake
is versioned: a ``hello`` carries ``proto`` and the daemon refuses
versions it does not speak, so a fleet can be upgraded one side at a
time without silent corruption:

* ``worker-hello`` — ``{"op": "worker-hello", "proto": FLEET_PROTO,
  "name": ...}`` → ``{"ok": true, "proto": ..., "worker_id": ...,
  "lease_s": ..., "hb_s": ...}``.  The agent heartbeats every ``hb_s``.
  One hello per connection; the connection *is* the worker's session,
  and its loss revokes every lease the worker holds.
* ``lease-request`` — ask for one cell, optionally reporting
  ``spawned``: the worker children booted since the last request.  The
  request waits on the queue for up to the daemon's long-poll bound
  (1 s), so a cell submitted meanwhile is granted at once; past it the
  reply is ``{"lease": null}`` and the agent asks again.  The grant
  carries the spec, seed, attempt, the lease's **fencing token**, the
  watchdog deadline ``timeout_s`` and the child-silence limit
  ``silence_s``.
* ``worker-heartbeat`` — ``{"digest": ..., "token": ...}`` renews the
  lease; the reply's ``lease`` field is ``"ok"`` or ``"revoked"`` (the
  agent must kill the job and discard its result on revocation).
* ``worker-result`` — deliver one outcome (the worker's ``result``
  fields) with the lease token.  An agent whose child failed the
  attempt adds the ``cause`` (``died``, ``timeout`` or ``frozen``);
  ``garbage`` counts the unparsable lines the child wrote.  The daemon counts both even
  for a stale token.  The reply's ``accepted`` is false when the token
  is stale (the lease expired and was re-granted, or the daemon
  restarted); a stale result is *never* committed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = [
    "MAX_LINE",
    "FLEET_PROTO",
    "RETRYABLE",
    "E_SATURATED",
    "E_UNAVAILABLE",
    "E_DRAINING",
    "E_BAD_REQUEST",
    "E_TOO_LARGE",
    "encode",
    "decode",
    "error_reply",
]

#: Hard cap on one protocol line (requests *and* replies).  Big enough
#: for a full-table submit or a reply carrying attribution blocks, small
#: enough that a misbehaving client cannot balloon daemon memory.
MAX_LINE = 32 * 1024 * 1024

#: Fleet handshake version.  Bumped whenever the worker↔daemon message
#: shapes change incompatibly; a daemon refuses hellos it cannot speak.
FLEET_PROTO = 1

E_SATURATED = "saturated"
E_UNAVAILABLE = "unavailable"
E_DRAINING = "draining"
E_BAD_REQUEST = "bad-request"
E_TOO_LARGE = "too-large"

#: Error codes a client may retry with backoff (the condition is
#: transient); everything else is terminal for the request as sent.
RETRYABLE = frozenset({E_SATURATED, E_UNAVAILABLE})


def encode(obj: Dict[str, Any]) -> bytes:
    """One protocol line, newline-terminated."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises ``ValueError`` on anything that
    is not a JSON object."""
    obj = json.loads(line.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("protocol line is not a JSON object")
    return obj


def error_reply(code: str, message: str,
                retry_after: Optional[float] = None) -> Dict[str, Any]:
    rep: Dict[str, Any] = {"ok": False, "error": code, "message": message}
    if retry_after is not None:
        rep["retry_after"] = round(float(retry_after), 3)
    return rep
