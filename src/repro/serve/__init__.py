"""repro.serve — sweep-as-a-service.

The paper's tables are deterministic functions of a
:class:`~repro.runx.spec.CellSpec`: same executor, params, and seed ⇒
bit-identical payload.  That makes serving them at scale a caching
problem, not a compute problem — identical requests from a million users
cost one simulation.  This package turns the one-shot ``repro-smm`` CLI
into a long-lived daemon built for exactly that, with robustness as the
headline feature:

* :mod:`repro.serve.protocol` — the line-delimited JSON wire format
  (unix socket + optional TCP) and its typed error replies, including
  HTTP-429-style ``retry_after`` backpressure;
* :mod:`repro.serve.cache` — a persistent content-addressed result
  cache keyed by ``CellSpec.digest()``; entries are written atomically
  and **re-verified on read** (payload checksum + spec digest +
  calibration provenance), so truncated or bit-flipped payloads are
  detected, evicted, and recomputed — never served;
* :mod:`repro.serve.queue` — a durable fsync'd job journal in the
  `repro.runx.journal` record format: ``kill -9`` of the daemon loses no
  accepted job, and a restart replays exactly the unfinished work;
* :mod:`repro.serve.daemon` — the daemon itself: in-flight request
  coalescing, long-polled leases, a circuit breaker that quarantines
  poisoned cells instead of crash-looping the workers, bounded queues,
  graceful drain on SIGTERM, and ``--workers N`` in-process agents;
* :mod:`repro.serve.client` — the blocking client the CLI
  (``repro-smm serve | submit | status``) and tests use, with
  decorrelated-jitter retry honoring the server's ``retry_after``;
* :mod:`repro.serve.fleet` — daemon-side scheduling: every cell is
  leased to a worker agent under a monotonic-clock deadline and a
  **fencing token**, so heartbeat loss re-grants work and a zombie's
  stale result can never be committed twice;
* :mod:`repro.serve.agent` — the worker agent, the package's one driver
  of a :mod:`repro.runx.workproc` child (through
  :class:`repro.runx.supervisor.WorkerChild`, the supervisor the sweep
  runner also uses: heartbeat monitoring, per-cell watchdog timeouts).
  It runs remotely (``repro-smm worker --connect HOST:PORT``) or as one
  of the daemon's ``--workers N`` threads over its unix socket, leases
  cells, respawns a dead child with bounded backoff, and reconnects
  with bounded decorrelated-jitter backoff.  Watchdog kills, heartbeat
  losses, restarts and garbled lines are counted the same for both.
"""

from repro.serve.agent import AgentConfig, WorkerAgent
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError, decorrelated_jitter
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.fleet import FleetScheduler
from repro.serve.queue import DurableQueue, JournalWriteError, QueueState

__all__ = [
    "AgentConfig",
    "WorkerAgent",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "decorrelated_jitter",
    "ServeConfig",
    "ServeDaemon",
    "FleetScheduler",
    "DurableQueue",
    "JournalWriteError",
    "QueueState",
]
