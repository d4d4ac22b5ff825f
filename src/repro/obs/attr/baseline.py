"""Shared-baseline memoization for the attribution engine.

Every ``--attr`` cell runs *two* simulations: the noisy one it is
reporting on and a zero-SMI baseline to difference against
(:func:`repro.obs.attr.explain.attribute_cell`).  Across a table sweep
the baseline is wildly redundant: all SMI classes of one
(bench, class, nodes, rpn, htt) configuration share the *same* SMM-0
run — same config, same seed, same payload, byte for byte.

This module memoizes that baseline.  The key is a content digest in the
style of :meth:`repro.runx.spec.CellSpec.digest` — sha256 over the
canonical JSON of everything that determines the baseline run — and the
value is a :class:`BaselineProfile`: the slim projection of a baseline
:class:`~repro.obs.attr.profile.RunProfile` that
:func:`~repro.obs.attr.decompose.decompose` actually reads (per-rank
wait/queue/SMM-wait/stolen/true totals plus the elapsed time).  The
projection copies every number as is, so a decomposition against a
cached baseline is identical to one against a fresh run.

Reuse is per process: each process keeps one :func:`global_store`, and
a persistent :mod:`repro.runx.workproc` worker keeps it across every
cell it runs, whether the sweep runner, a serve pool slot or a fleet
agent drives it.  Nothing crosses a process boundary.  A worker that
misses simply simulates the baseline itself, which yields the same
bytes, because the zero-SMI run is deterministic.  Each worker result
carries its job's hit/miss delta (``baseline_stats``), and the serve
daemon sums those into ``attr.baseline.{hits,misses}``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Optional

__all__ = [
    "baseline_digest",
    "BaselineRank",
    "BaselineProfile",
    "BaselineStore",
    "global_store",
    "reset_global_store",
]


def baseline_digest(
    bench: str,
    cls: str,
    nodes: int,
    rpn: int,
    htt: bool,
    seed: int,
) -> str:
    """Content digest of one zero-SMI baseline run: (app, class,
    topology, seed).  The SMI class and interval deliberately are not in
    the key — the baseline is SMM 0 regardless of which noisy class asks,
    and a run with no SMIs never consumes the interval (or, it turns out,
    the seed: the zero-SMI simulation is fully deterministic, which
    ``tests/obs/test_attr_baseline.py`` pins down as the invariant this
    memo leans on).  Seed stays in the key anyway so the store provably
    never serves one seed's entry for another's lookup."""
    blob = json.dumps(
        ["attr-baseline", bench, cls, int(nodes), int(rpn), bool(htt),
         int(seed)],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class BaselineRank:
    """Per-rank baseline totals — exactly the five fields
    :func:`~repro.obs.attr.decompose.decompose` reads from the baseline
    side of the difference."""

    __slots__ = ("rank", "wait_ns", "queue_ns", "smm_wait_ns",
                 "stolen_ns", "true_ns")

    def __init__(self, rank: int, wait_ns: int, queue_ns: int,
                 smm_wait_ns: int, stolen_ns: float, true_ns: float):
        self.rank = rank
        self.wait_ns = wait_ns
        self.queue_ns = queue_ns
        self.smm_wait_ns = smm_wait_ns
        self.stolen_ns = stolen_ns
        self.true_ns = true_ns


class BaselineProfile:
    """The decompose-facing projection of a baseline run profile.

    Duck-typed stand-in for :class:`~repro.obs.attr.profile.RunProfile`
    on the *baseline* side of :func:`decompose` — it exposes ``ranks``,
    ``elapsed_app_s`` and ``span_ns`` and nothing else (the noisy side
    needs the full profile; the baseline side never did).
    """

    __slots__ = ("elapsed_app_s", "span_ns", "ranks")

    def __init__(self, elapsed_app_s: Optional[float], span_ns: int,
                 ranks: Dict[int, BaselineRank]):
        self.elapsed_app_s = elapsed_app_s
        self.span_ns = span_ns
        self.ranks = ranks

    @classmethod
    def from_profile(cls, prof) -> "BaselineProfile":
        """Project a full :class:`RunProfile` down to the baseline view."""
        ranks = {
            r: BaselineRank(r, rp.wait_ns, rp.queue_ns, rp.smm_wait_ns,
                            rp.stolen_ns, rp.true_ns)
            for r, rp in prof.ranks.items()
        }
        return cls(prof.elapsed_app_s, prof.span_ns, ranks)


#: LRU capacity of a baseline store.  Profiles are slim (a few hundred
#: bytes per rank), but a daemon's or fleet agent's worker outlives many
#: submits, and its store would otherwise grow without bound.
DEFAULT_BASELINE_CACHE_MAX = 256


class BaselineStore:
    """Digest-keyed LRU baseline cache with hit/miss/eviction accounting.

    Thread-safe: an inline sweep with ``jobs > 1`` runs its cells on
    threads that share the process's :func:`global_store`.  It hands out
    the stored :class:`BaselineProfile` itself, which callers only read.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._profiles: "OrderedDict[str, BaselineProfile]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._profiles)

    def get(self, digest: str) -> Optional[BaselineProfile]:
        """Cached baseline profile, or ``None`` (counted as a miss —
        the caller is about to run the baseline for real)."""
        with self._lock:
            prof = self._profiles.get(digest)
            if prof is None:
                self.misses += 1
                return None
            self._profiles.move_to_end(digest)
            self.hits += 1
        return prof

    def put(self, digest: str, profile: BaselineProfile) -> None:
        """Record a freshly computed baseline.  Past the cap the
        oldest-touched entry goes; an evicted baseline simply gets
        re-simulated on its next miss."""
        with self._lock:
            if digest not in self._profiles:
                self._profiles[digest] = profile
                while len(self._profiles) > DEFAULT_BASELINE_CACHE_MAX:
                    self._profiles.popitem(last=False)
                    self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._profiles)}


_global: Optional[BaselineStore] = None
_global_lock = threading.Lock()


def global_store() -> BaselineStore:
    """The process-wide store :func:`attribute_cell` defaults to."""
    global _global
    if _global is None:
        with _global_lock:
            if _global is None:
                _global = BaselineStore()
    return _global


def reset_global_store() -> BaselineStore:
    """Replace the process-wide store (tests; seed isolation checks)."""
    global _global
    with _global_lock:
        _global = BaselineStore()
    return _global
