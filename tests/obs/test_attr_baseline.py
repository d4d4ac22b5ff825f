"""Shared-baseline memoization (repro.obs.attr.baseline).

Two groups:

* Store semantics — repeated lookups of one (app, class, topology, seed)
  key serve the identical profile, field for field, and a store never
  serves one seed's baseline for another seed's lookup.

* The determinism invariant the sweep-level sharing leans on — a
  zero-SMI run is bit-identical across seeds and SMI intervals (the RNG
  only draws for SMI arrivals, so with no SMIs it is never consulted).
  ``repro.runx.cells._nas_cell_attr`` points every SMI class of one
  configuration at the SMM-0 column's seed on the strength of this;
  if these tests start failing, that sharing is no longer sound.
"""

import json

import pytest

from repro.apps.nas.params import NasClass
from repro.apps.nas.study import NasConfig, run_nas_config
from repro.obs import MetricsRegistry
from repro.obs.attr import AttrCapture, attribute_cell, build_profile
from repro.obs.attr.baseline import (
    BaselineProfile,
    BaselineRank,
    BaselineStore,
    baseline_digest,
    global_store,
    reset_global_store,
)
from repro.simx.timeline import Timeline


def _profile(elapsed=1.25, span=1_250_000_000):
    ranks = {r: BaselineRank(r, 10 + r, 20 + r, 30 + r, 40.5 + r, 50.25 + r)
             for r in (0, 1)}
    return BaselineProfile(elapsed, span, ranks)


_RANK_FIELDS = ("rank", "wait_ns", "queue_ns", "smm_wait_ns", "stolen_ns",
                "true_ns")


def _fields(prof):
    """Every number a baseline profile carries, for exact comparison."""
    return (prof.elapsed_app_s, prof.span_ns,
            {r: tuple(getattr(br, f) for f in _RANK_FIELDS)
             for r, br in prof.ranks.items()})


# -- digest keying ------------------------------------------------------------

def test_digest_keys_on_app_class_topology_seed():
    ref = baseline_digest("BT", "A", 16, 1, False, 7)
    assert baseline_digest("BT", "A", 16, 1, False, 7) == ref  # stable
    assert baseline_digest("FT", "A", 16, 1, False, 7) != ref
    assert baseline_digest("BT", "B", 16, 1, False, 7) != ref
    assert baseline_digest("BT", "A", 4, 1, False, 7) != ref
    assert baseline_digest("BT", "A", 16, 4, False, 7) != ref
    assert baseline_digest("BT", "A", 16, 1, True, 7) != ref
    assert baseline_digest("BT", "A", 16, 1, False, 8) != ref


def test_digest_has_no_interval_axis():
    """The SMI interval must not key the baseline: SMM 0 never consumes
    it, and keying on it would shatter cross-column reuse."""
    import inspect

    assert "interval" not in " ".join(
        inspect.signature(baseline_digest).parameters)


# -- store semantics ----------------------------------------------------------

def test_repeated_get_serves_identical_bytes():
    store = BaselineStore()
    digest = baseline_digest("EP", "A", 2, 1, False, 1)
    store.put(digest, _profile())
    a = store.get(digest)
    b = store.get(digest)
    assert a is not None and b is not None
    assert _fields(a) == _fields(b) == _fields(_profile())
    assert store.stats() == {"hits": 2, "misses": 0, "evictions": 0, "entries": 1}


def test_store_never_crosses_seeds():
    store = BaselineStore()
    d_seed1 = baseline_digest("EP", "A", 2, 1, False, 1)
    d_seed2 = baseline_digest("EP", "A", 2, 1, False, 2)
    assert d_seed1 != d_seed2
    store.put(d_seed1, _profile(elapsed=1.0))
    assert store.get(d_seed2) is None  # other seed: miss, not a stale hit
    got = store.get(d_seed1)
    assert got is not None and got.elapsed_app_s == 1.0
    assert store.stats() == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}


def test_store_round_trip_is_exact():
    p = _profile(elapsed=0.1 + 0.2, span=3)  # 0.30000000000000004
    store = BaselineStore()
    digest = baseline_digest("EP", "A", 2, 1, False, 1)
    store.put(digest, p)
    q = store.get(digest)
    assert q is not None
    assert q.elapsed_app_s == p.elapsed_app_s  # bit-exact, not approx
    assert _fields(q) == _fields(p)


def test_reset_global_store_replaces_instance():
    s1 = global_store()
    s2 = reset_global_store()
    assert s2 is global_store()
    assert s2 is not s1


# -- the determinism invariant ------------------------------------------------

def _baseline_record(seed, interval):
    cfg = NasConfig("EP", NasClass.A, nodes=2, ranks_per_node=1)
    cap = AttrCapture()
    elapsed = run_nas_config(cfg, smm=0, seed=seed,
                             interval_jiffies=interval,
                             timeline=Timeline(), attr=cap)
    return elapsed, _fields(BaselineProfile.from_profile(build_profile(cap)))


def test_zero_smi_baseline_is_seed_and_interval_invariant():
    """The invariant behind canonical-seed baseline sharing: with no
    SMIs the RNG is never drawn, so seed and interval are inert — the
    run (and the full baseline profile) is bit-identical."""
    e1, r1 = _baseline_record(seed=1, interval=1000)
    e2, r2 = _baseline_record(seed=424243, interval=500)
    assert e1 == e2
    assert r1 == r2


def test_memoized_baseline_reproduces_fresh_report_exactly():
    """attribute_cell against a warm store must emit the same report,
    byte for byte, as against a cold one — and pay zero baseline sims."""
    reg = MetricsRegistry()
    store = BaselineStore()
    cold = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=2, seed=1,
                          metrics=reg, baselines=store)
    assert reg.counter("attr.baseline.misses").value == 1
    warm = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=2, seed=1,
                          metrics=reg, baselines=store)
    assert reg.counter("attr.baseline.hits").value == 1
    assert json.dumps(warm.report, sort_keys=True) == \
        json.dumps(cold.report, sort_keys=True)


def test_canonical_baseline_seed_sharing_is_lossless():
    """The sweep's sharing scheme end to end: two SMI classes with
    different (strided) noisy seeds share one canonical-seed baseline;
    both reports equal the unshared per-seed-baseline runs exactly."""
    canonical = 5
    shared = BaselineStore()
    reg = MetricsRegistry()
    s1 = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=1, seed=36,
                        baseline_seed=canonical, baselines=shared,
                        metrics=reg)
    s2 = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=2, seed=67,
                        baseline_seed=canonical, baselines=shared,
                        metrics=reg)
    assert reg.counter("attr.baseline.misses").value == 1  # one baseline sim
    assert reg.counter("attr.baseline.hits").value == 1    # ...shared

    u1 = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=1, seed=36,
                        baselines=BaselineStore())
    u2 = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=2, seed=67,
                        baselines=BaselineStore())
    assert json.dumps(s1.report, sort_keys=True) == \
        json.dumps(u1.report, sort_keys=True)
    assert json.dumps(s2.report, sort_keys=True) == \
        json.dumps(u2.report, sort_keys=True)


def test_default_store_is_process_global():
    """Two attribute_cell calls with no explicit store share the
    process-wide one (the conftest fixture resets it around each test)."""
    reg = MetricsRegistry()
    attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=2, seed=1, metrics=reg)
    attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=1, seed=1, metrics=reg)
    assert reg.counter("attr.baseline.misses").value == 1
    assert reg.counter("attr.baseline.hits").value == 1
    assert len(global_store()) == 1
