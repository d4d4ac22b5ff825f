"""The durable job queue: fsync'd acceptance, crash-safe replay.

The daemon's acceptance contract is "once we reply *accepted*, the job
survives anything short of disk loss".  That is bought the same way
`repro.runx.journal` buys checkpoint durability — an append-only JSONL
file, one fsync'd record per state transition, torn-tail repair on
reopen — and deliberately *in the same record format* (kind-tagged JSON
objects, read back with :func:`repro.runx.journal.iter_records`):

* ``{"kind": "job", "id": <digest>, "spec": {...}}`` — accepted;
  fsync'd **before** the client hears "accepted".
* ``{"kind": "done", "id": <digest>}`` — the result is safely in the
  content-addressed cache; the claim/ack commit point.
* ``{"kind": "failed", "id": <digest>, "error": ...}`` — terminal
  deterministic failure (e.g. killed in-simulation by its fault plan).
* ``{"kind": "quarantine", "id": <digest>, ...}`` — the circuit breaker
  tripped: the cell poisoned ``attempts`` workers and is never leased
  again until the operator clears it.

Replay after ``kill -9`` is a pure fold over the records: any accepted
job without a terminal record is still owed to some client and is
re-enqueued on boot (the cache may already hold its result, in which
case replay completes it without recomputing).  Quarantine records
persist across restarts — a cell that crash-looped the old daemon must
not get to crash-loop the new one.

On boot the journal is also *compacted*: terminal records of completed
jobs are folded away and the file atomically rewritten with only the
live state (pending jobs + quarantine), so the journal's size tracks
outstanding work, not lifetime traffic.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.obs.atomic import atomic_write_text
from repro.runx.journal import (
    JournalWriteError, append_record, iter_records, repair_torn_tail)

__all__ = ["DurableQueue", "QueueState", "JournalWriteError"]

log = logging.getLogger(__name__)


@dataclass
class QueueState:
    """The live state a journal folds down to."""

    #: accepted-but-unfinished jobs: digest -> spec record.
    pending: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: circuit-broken cells: digest -> quarantine record.
    quarantined: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: terminal counts folded away by compaction (for the boot log line).
    completed: int = 0
    failed: int = 0


class DurableQueue:
    """Append-only job journal for one serve state directory."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()

    # -- record appends (each fsync'd before returning) -----------------------
    def record_job(self, digest: str, spec_rec: Dict[str, Any]) -> None:
        self._append({"kind": "job", "id": digest, "spec": spec_rec})

    def record_done(self, digest: str) -> None:
        self._append({"kind": "done", "id": digest})

    def record_failed(self, digest: str, error: str) -> None:
        self._append({"kind": "failed", "id": digest, "error": error})

    def record_quarantine(self, digest: str, attempts: int,
                          error: str) -> None:
        self._append({"kind": "quarantine", "id": digest,
                      "attempts": attempts, "error": error})

    def _append(self, rec: Dict[str, Any]) -> None:
        """Fsync one record; raises the typed
        :class:`~repro.runx.journal.JournalWriteError` when the disk
        refuses (full, read-only, failing) — the daemon maps that to a
        retryable reply rather than letting the accept loop die."""
        with self._lock:
            append_record(self.path, rec)

    # -- replay ---------------------------------------------------------------
    def replay(self) -> QueueState:
        """Fold the journal into live state (crash-tolerant read)."""
        state = QueueState()
        if not os.path.exists(self.path):
            return state
        with self._lock:
            repair_torn_tail(self.path)
            for rec in iter_records(self.path):
                kind, digest = rec.get("kind"), rec.get("id")
                if not digest:
                    continue
                if kind == "job":
                    spec = rec.get("spec")
                    if isinstance(spec, dict):
                        state.pending[digest] = spec
                elif kind == "done":
                    state.pending.pop(digest, None)
                    state.completed += 1
                elif kind == "failed":
                    state.pending.pop(digest, None)
                    state.failed += 1
                elif kind == "quarantine":
                    state.pending.pop(digest, None)
                    state.quarantined[digest] = rec
        return state

    def compact(self, state: QueueState) -> None:
        """Atomically rewrite the journal as just the live state."""
        def write(fp):
            for rec in state.quarantined.values():
                fp.write(json.dumps(rec, separators=(",", ":")) + "\n")
            for digest, spec in state.pending.items():
                fp.write(json.dumps(
                    {"kind": "job", "id": digest, "spec": spec},
                    separators=(",", ":")) + "\n")

        with self._lock:
            atomic_write_text(self.path, write)
        log.info(
            "queue %s compacted: %d pending, %d quarantined "
            "(%d completed + %d failed folded away)",
            self.path, len(state.pending), len(state.quarantined),
            state.completed, state.failed)
