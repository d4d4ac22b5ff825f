"""The content-addressed result cache: self-healing, never-trusting.

A cell's payload is a pure function of its :class:`~repro.runx.spec.CellSpec`
digest, so the cache is a plain directory keyed by digest:
``<root>/<digest[:2]>/<digest>.json``.  What makes it production-grade
is that a read **never trusts the bytes on disk**; every entry is an
envelope that is re-verified layer by layer:

1. it must parse as JSON (truncation, torn writes),
2. its ``schema`` must match (old or foreign envelopes),
3. its recorded spec must re-digest to the filename digest
   (schema-mismatched or mislabeled payloads),
4. the payload must re-hash to the recorded ``value_sha256``
   (bit flips anywhere in the value),
5. its ``calibration_sha256`` must match the running code's calibration
   constants (a cache produced by a different model is not *corrupt*,
   but it is *stale* — its numbers are not this code's numbers).

Any failure evicts the entry (counted in ``serve.cache.corrupt`` or
``serve.cache.stale``) and reports a miss, so the daemon transparently
recomputes instead of serving garbage.  Writes go through
:func:`repro.obs.atomic.atomic_write_text`, so a crash mid-``put``
leaves either the old entry or the new one, never a truncation — but
the read-side verification stands on its own, catching even damage the
write path could never cause (disk corruption, manual tampering).

Every envelope also carries provenance (package version, python,
creation time) so a served result can say where its bytes came from —
the same Hunold & Carpen-Amarie argument the run manifests make.

The store is **bounded**: ``REPRO_SERVE_CACHE_MAX`` (or the
``max_entries`` argument) caps the entry count with LRU eviction:
recency is tracked in an in-memory index (seeded from file mtimes at
boot, bumped on every verified hit) and overflow evicts the coldest
entries, counted in ``serve.cache.evictions``.  The default is
unbounded: evicting a deterministic result only ever costs a recompute,
so the cap is an operator disk-budget knob, not a correctness feature.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.obs.atomic import atomic_write_text
from repro.runx.spec import CellSpec

__all__ = ["CACHE_SCHEMA", "ResultCache", "value_sha256", "calibration_sha256"]

log = logging.getLogger(__name__)

#: Bumped whenever the envelope layout changes incompatibly; entries
#: with any other schema are treated as corrupt and recomputed.
CACHE_SCHEMA = 1

#: ``REPRO_SERVE_CACHE_MAX`` ≤ 0 (the default) means unbounded.
DEFAULT_CACHE_MAX = 0


def value_sha256(value: Any) -> str:
    """Canonical content hash of a JSON-able payload."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def calibration_sha256() -> str:
    """Content hash of the running code's calibration constants — the
    provenance key that keeps a cache from outliving the model that
    filled it."""
    from repro.obs.manifest import calibration_constants

    return value_sha256(calibration_constants())


class ResultCache:
    """Persistent digest-keyed result store with read-time verification."""

    def __init__(self, root: str, metrics=None,
                 max_entries: Optional[int] = None):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._calibration = calibration_sha256()
        if max_entries is None:
            max_entries = int(os.environ.get(
                "REPRO_SERVE_CACHE_MAX", DEFAULT_CACHE_MAX))
        #: LRU cap on entry count; <= 0 disables eviction.
        self.max_entries = max_entries
        self.evictions = 0
        #: digest -> True in least-recently-used-first order, seeded
        #: from on-disk mtimes so the LRU survives daemon restarts.
        self._lru: "OrderedDict[str, bool]" = self._scan()
        if metrics is not None:
            self._c_hits = metrics.counter(
                "serve.cache.hits", "verified cache reads served")
            self._c_misses = metrics.counter(
                "serve.cache.misses", "cache reads that found no entry")
            self._c_corrupt = metrics.counter(
                "serve.cache.corrupt",
                "entries evicted because verification failed")
            self._c_stale = metrics.counter(
                "serve.cache.stale",
                "entries evicted because calibration constants changed")
            self._c_writes = metrics.counter(
                "serve.cache.writes", "entries written")
            self._c_evictions = metrics.counter(
                "serve.cache.evictions",
                "entries LRU-evicted past REPRO_SERVE_CACHE_MAX")
        else:
            self._c_hits = self._c_misses = self._c_corrupt = None
            self._c_stale = self._c_writes = self._c_evictions = None

    # -- paths ----------------------------------------------------------------
    def path_for(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".json")

    def __len__(self) -> int:
        return len(self._lru)

    def _scan(self) -> "OrderedDict[str, bool]":
        """Seed the LRU index from disk, coldest (oldest mtime) first."""
        found = []
        for shard in os.listdir(self.root):
            sub = os.path.join(self.root, shard)
            if not os.path.isdir(sub):
                continue
            for name in os.listdir(sub):
                if not name.endswith(".json"):
                    continue
                try:
                    mtime = os.path.getmtime(os.path.join(sub, name))
                except OSError:
                    continue
                found.append((mtime, name[:-len(".json")]))
        found.sort()
        return OrderedDict((digest, True) for _, digest in found)

    def _touch(self, digest: str) -> None:
        self._lru[digest] = True
        self._lru.move_to_end(digest)

    def _evict_over_cap(self) -> None:
        if self.max_entries <= 0:
            return
        while len(self._lru) > self.max_entries:
            coldest, _ = self._lru.popitem(last=False)
            self._evict(self.path_for(coldest))
            self.evictions += 1
            self._count(self._c_evictions)

    # -- read -----------------------------------------------------------------
    def get(self, spec: CellSpec) -> Optional[Dict[str, Any]]:
        """The verified payload for ``spec``, or ``None`` (miss).

        A failed verification evicts the entry and reports a miss — the
        caller recomputes, and the recompute's ``put`` heals the cache.
        """
        value, _ = self.get_with_provenance(spec)
        return value

    def get_with_provenance(
        self, spec: CellSpec,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
        digest = spec.digest()
        path = self.path_for(digest)
        try:
            with open(path, encoding="utf-8") as fp:
                raw = fp.read()
        except FileNotFoundError:
            self._lru.pop(digest, None)
            self._count(self._c_misses)
            return None, None
        except OSError as exc:  # pragma: no cover — I/O error mid-read
            log.warning("cache %s: unreadable (%s)", path, exc)
            self._count(self._c_misses)
            return None, None
        why = self._verify(raw, digest)
        if why is not None:
            kind = "stale" if why == "calibration drift" else "corrupt"
            log.warning("cache %s: %s (%s); evicting", path, kind, why)
            self._evict(path)
            self._lru.pop(digest, None)
            self._count(self._c_stale if kind == "stale" else self._c_corrupt)
            self._count(self._c_misses)
            return None, None
        env = json.loads(raw)
        self._touch(digest)
        self._count(self._c_hits)
        return env["value"], env.get("provenance")

    def _verify(self, raw: str, digest: str) -> Optional[str]:
        """``None`` if the envelope is trustworthy, else the reason."""
        try:
            env = json.loads(raw)
        except ValueError:
            return "unparsable envelope (truncated or torn)"
        if not isinstance(env, dict):
            return "envelope is not an object"
        if env.get("schema") != CACHE_SCHEMA:
            return f"schema mismatch ({env.get('schema')!r} != {CACHE_SCHEMA})"
        spec_rec = env.get("spec")
        if not isinstance(spec_rec, dict):
            return "missing spec record"
        try:
            rebuilt = CellSpec.from_record(spec_rec).digest()
        except (KeyError, TypeError, ValueError):
            return "malformed spec record"
        if rebuilt != digest:
            return f"spec re-digest mismatch ({rebuilt} != {digest})"
        if "value" not in env:
            return "missing value"
        if value_sha256(env["value"]) != env.get("value_sha256"):
            return "payload checksum mismatch (bit flip?)"
        if env.get("calibration_sha256") != self._calibration:
            return "calibration drift"
        return None

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover — already gone / perms
            pass

    # -- write ----------------------------------------------------------------
    def put(self, spec: CellSpec, value: Dict[str, Any],
            provenance: Optional[Dict[str, Any]] = None) -> str:
        """Store ``value`` for ``spec``; returns the entry path."""
        import repro

        digest = spec.digest()
        path = self.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        env = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "spec": spec.to_record(),
            "value": value,
            "value_sha256": value_sha256(value),
            "calibration_sha256": self._calibration,
            "provenance": {
                "version": repro.__version__,
                "created_unix": round(time.time(), 3),
                **(provenance or {}),
            },
        }
        atomic_write_text(
            path, lambda fp: json.dump(env, fp, separators=(",", ":")))
        self._touch(digest)
        self._evict_over_cap()
        self._count(self._c_writes)
        return path

    @staticmethod
    def _count(counter) -> None:
        if counter is not None:
            counter.inc()
