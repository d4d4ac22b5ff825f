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
* :mod:`repro.serve.pool` — asyncio slots over the queue, each driving
  one persistent :mod:`repro.runx.workproc` worker from a thread through
  :class:`repro.runx.supervisor.WorkerChild`, the supervisor the sweep
  runner and the fleet agent also use (heartbeat monitoring, per-cell
  watchdog timeouts), with bounded exponential-backoff restarts;
* :mod:`repro.serve.daemon` — the daemon itself: in-flight request
  coalescing, a circuit breaker that quarantines poisoned cells instead
  of crash-looping the pool, bounded queues, graceful drain on SIGTERM;
* :mod:`repro.serve.client` — the blocking client the CLI
  (``repro-smm serve | submit | status``) and tests use, with
  decorrelated-jitter retry honoring the server's ``retry_after``;
* :mod:`repro.serve.fleet` — daemon-side multi-host scheduling: cells
  leased to remote workers under monotonic-clock deadlines and
  **fencing tokens**, so heartbeat loss re-grants work and a zombie's
  stale result can never be committed twice;
* :mod:`repro.serve.agent` — the remote worker
  (``repro-smm worker --connect HOST:PORT``) that dials the daemon,
  pulls leases, runs them in a supervised workproc child, and
  reconnects with bounded decorrelated-jitter backoff.
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
