"""Warmup-prefix sharing (repro.runx.forkshare).

Four groups:

* Store semantics — the :class:`SnapshotStore` LRU counts hits, misses,
  evictions, and forks, and caps live prefixes.

* Eligibility — every gate that must send a cell down the cold path:
  ``REPRO_SNAPSHOT=off``, SMM 0, a plain table sweep (no ``interval``
  key), faults/attr rewrites, and intervals below the rollout phase
  spread (where the phase draws themselves become interval-dependent).

* Correctness — forked per-repetition values are *equal* to the cold
  replay's (the byte-level pin lives in
  ``tests/integration/test_fork_identity.py``), and a prefix refuses
  intervals below its base.

* Planning — :func:`repro.harness.mpi_tables.interval_sweep_specs`
  emits the prefix-shareable shape and the sweep runner groups those
  cells into one unit for one persistent worker, smallest interval first.
"""

import pytest

from repro.apps.nas.params import NasClass
from repro.apps.nas.study import DEFAULT_PHASE_SPREAD_NS, NasConfig, run_nas_config
from repro.core.experiment import rep_seed, smm_cell_seed
from repro.harness.mpi_tables import interval_sweep_specs
from repro.machine.clock import JIFFY_NS
from repro.runx.forkshare import (
    SnapshotStore,
    WarmPrefix,
    fork_supported,
    forked_nas_values,
    global_store,
    prefix_digest,
    snapshot_mode,
)
from repro.runx.runner import SweepRunner
from repro.runx.spec import CellSpec

needs_fork = pytest.mark.skipif(not fork_supported(),
                                reason="needs os.fork")


@pytest.fixture(autouse=True)
def _fork_path_on(monkeypatch):
    # These tests exercise the fork path itself, so they must not
    # inherit the CI cold-path leg's REPRO_SNAPSHOT=off (tests that
    # check the off behaviour set it explicitly, overriding this).
    monkeypatch.setenv("REPRO_SNAPSHOT", "auto")

EP_PARAMS = {"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1,
             "smm": 2, "reps": 2, "interval": 1000}


def _ep_cfg():
    return NasConfig("EP", NasClass.A, nodes=2, ranks_per_node=1)


# -- escape hatch -------------------------------------------------------------

@pytest.mark.parametrize("spelling", ["off", "OFF", "0", "no", "false"])
def test_snapshot_mode_off_spellings(monkeypatch, spelling):
    monkeypatch.setenv("REPRO_SNAPSHOT", spelling)
    assert snapshot_mode() == "off"


@pytest.mark.parametrize("spelling", [None, "auto", "on", "weird"])
def test_snapshot_mode_defaults_to_auto(monkeypatch, spelling):
    if spelling is None:
        monkeypatch.delenv("REPRO_SNAPSHOT", raising=False)
    else:
        monkeypatch.setenv("REPRO_SNAPSHOT", spelling)
    assert snapshot_mode() == "auto"


# -- digest keying ------------------------------------------------------------

def test_prefix_digest_keys_on_every_axis():
    ref = prefix_digest("FT", "A", 4, 4, False, 2, 7)
    assert prefix_digest("FT", "A", 4, 4, False, 2, 7) == ref  # stable
    assert prefix_digest("BT", "A", 4, 4, False, 2, 7) != ref
    assert prefix_digest("FT", "B", 4, 4, False, 2, 7) != ref
    assert prefix_digest("FT", "A", 8, 4, False, 2, 7) != ref
    assert prefix_digest("FT", "A", 4, 1, False, 2, 7) != ref
    assert prefix_digest("FT", "A", 4, 4, True, 2, 7) != ref
    assert prefix_digest("FT", "A", 4, 4, False, 1, 7) != ref
    assert prefix_digest("FT", "A", 4, 4, False, 2, 8) != ref


def test_prefix_digest_has_no_interval_axis():
    """The interval is what the fork retargets — keying on it would
    shatter the sharing the whole module exists for."""
    import inspect

    assert "interval" not in inspect.signature(prefix_digest).parameters


# -- store semantics ----------------------------------------------------------

def _dummy_prefix():
    return WarmPrefix(cluster=None, job=None, base_interval_jiffies=1000,
                      cached_value=1.0, done_early=True)


def test_store_counts_hits_and_misses():
    store = SnapshotStore(max_entries=4)
    assert store.get("aa") is None
    store.put("aa", _dummy_prefix())
    assert store.get("aa") is not None
    assert store.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                             "forks": 0, "entries": 1}


def test_store_lru_evicts_oldest_touched():
    store = SnapshotStore(max_entries=2)
    store.put("a", _dummy_prefix())
    store.put("b", _dummy_prefix())
    assert store.get("a") is not None  # refresh "a": "b" is now oldest
    store.put("c", _dummy_prefix())   # evicts "b"
    assert store.get("b") is None
    assert store.get("a") is not None and store.get("c") is not None
    assert store.stats()["evictions"] == 1
    assert len(store) == 2


def test_store_cap_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_CACHE_MAX", "3")
    assert SnapshotStore().max_entries == 3
    monkeypatch.delenv("REPRO_SNAPSHOT_CACHE_MAX")
    assert SnapshotStore(max_entries=5).max_entries == 5


def test_record_fork_counts():
    store = SnapshotStore()
    store.record_fork()
    store.record_fork()
    assert store.stats()["forks"] == 2


# -- eligibility gates --------------------------------------------------------

def test_off_mode_forces_cold_path(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT", "off")
    assert forked_nas_values(dict(EP_PARAMS), seed=3) is None


def test_smm_zero_is_cold():
    p = dict(EP_PARAMS, smm=0)
    assert forked_nas_values(p, seed=3) is None


def test_plain_table_cell_without_interval_is_cold():
    p = dict(EP_PARAMS)
    del p["interval"]
    assert forked_nas_values(p, seed=3) is None


def test_faulted_and_attributed_cells_are_cold():
    assert forked_nas_values(
        dict(EP_PARAMS, faults=[{"kind": "x"}]), seed=3) is None
    assert forked_nas_values(dict(EP_PARAMS, attr=True), seed=3) is None


def test_interval_below_phase_spread_is_cold():
    """Below the rollout spread the phase draw range is clamped by the
    interval, so the prefix itself would differ per interval."""
    below = DEFAULT_PHASE_SPREAD_NS // JIFFY_NS - 1
    assert forked_nas_values(dict(EP_PARAMS, interval=below), seed=3) is None


# -- fork correctness ---------------------------------------------------------

@needs_fork
def test_forked_values_equal_cold_replay():
    seed = smm_cell_seed(3, 2, False)
    fv = forked_nas_values(dict(EP_PARAMS), seed=seed)
    assert fv is not None and len(fv) == EP_PARAMS["reps"]
    cold = [
        run_nas_config(_ep_cfg(), smm=2, seed=rep_seed(seed, r),
                       interval_jiffies=1000)
        for r in range(EP_PARAMS["reps"])
    ]
    assert fv == cold  # float-exact, not approx


@needs_fork
def test_second_interval_hits_the_warm_prefix():
    seed = smm_cell_seed(3, 2, False)
    forked_nas_values(dict(EP_PARAMS), seed=seed)
    s0 = global_store().stats()
    assert s0["misses"] == EP_PARAMS["reps"] and s0["hits"] == 0

    fv = forked_nas_values(dict(EP_PARAMS, interval=1200), seed=seed)
    assert fv is not None
    s1 = global_store().stats()
    assert s1["misses"] == s0["misses"]          # no re-warm
    assert s1["hits"] == EP_PARAMS["reps"]       # every rep reused
    cold = [
        run_nas_config(_ep_cfg(), smm=2, seed=rep_seed(seed, r),
                       interval_jiffies=1200)
        for r in range(EP_PARAMS["reps"])
    ]
    assert fv == cold


@needs_fork
def test_prefix_refuses_interval_below_its_base():
    wp = WarmPrefix.warm(_ep_cfg(), smm=2, seed=11, interval_jiffies=1000)
    assert wp is not None
    ok, reason = wp.value(800)
    assert not ok and "below" in reason


# -- sweep planning -----------------------------------------------------------

def _iv_specs(intervals=(1200, 1000, 1000, 1400), smm=2):
    return interval_sweep_specs("EP", NasClass.A, 2, 1, smm,
                                list(intervals), reps=1, seed=3)


def test_interval_sweep_specs_shape():
    specs = _iv_specs()
    assert [s.params["interval"] for s in specs] == [1000, 1200, 1400]
    assert len({s.id for s in specs}) == 3                   # unique ids
    assert len({s.base_seed for s in specs}) == 1            # shared seed
    assert specs[0].base_seed == smm_cell_seed(3, 2, False)
    assert all(s.fn == "nas" for s in specs)


def test_runner_groups_interval_cells_into_one_unit():
    other = CellSpec(id="syn", fn="synthetic",
                     params={"value": 1.0, "reps": 1}, base_seed=9)
    todo = _iv_specs() + [other]
    units = SweepRunner(isolation="process")._plan_units(todo)
    groups = [u for u in units if isinstance(u, list)]
    singles = [u for u in units if isinstance(u, CellSpec)]
    assert len(groups) == 1 and len(singles) == 1
    assert [s.params["interval"] for s in groups[0]] == [1000, 1200, 1400]
    assert singles[0].id == "syn"


def test_runner_never_groups_when_ineligible(monkeypatch):
    todo = _iv_specs()
    flat = [todo[0]]  # a lone interval cell is not worth a batch worker
    assert SweepRunner(isolation="process")._plan_units(flat) == flat

    from repro.obs.metrics import MetricsRegistry
    runner = SweepRunner(isolation="process", metrics=MetricsRegistry())
    assert all(isinstance(u, CellSpec) for u in runner._plan_units(todo))

    inline = SweepRunner(isolation="inline")
    assert all(isinstance(u, CellSpec) for u in inline._plan_units(todo))

    monkeypatch.setenv("REPRO_SNAPSHOT", "off")
    proc = SweepRunner(isolation="process")
    assert all(isinstance(u, CellSpec) for u in proc._plan_units(todo))


def test_fork_group_key_rules():
    key = SweepRunner._fork_group_key
    a, b, c = _iv_specs()
    assert key(a) == key(b) == key(c) is not None
    assert key(CellSpec(id="x", fn="synthetic",
                        params={"interval": 1000, "smm": 2})) is None
    smm0 = _iv_specs(smm=0)[0]
    assert key(smm0) is None
    plain = CellSpec(id="p", fn="nas",
                     params={k: v for k, v in a.params.items()
                             if k != "interval"}, base_seed=a.base_seed)
    assert key(plain) is None
    faulted = CellSpec(id="f", fn="nas",
                       params=dict(a.params, faults=[{"kind": "x"}]),
                       base_seed=a.base_seed)
    assert key(faulted) is None
    other_seed = CellSpec(id="s", fn="nas", params=dict(a.params),
                          base_seed=a.base_seed + 1)
    assert key(other_seed) != key(a)


@needs_fork
def test_fork_group_runs_on_one_persistent_worker():
    """A fork group is its cells sent in ascending-interval order to one
    persistent worker: the first cell warms the prefix, and every later
    cell forks it from the worker's store, which outlives each job."""
    specs = _iv_specs()
    with SweepRunner(isolation="process", jobs=2) as runner:
        results = runner.run(specs)
        pids = {child.proc.pid for child in runner._children}
        stats = dict(runner.snapshot_stats)
    assert all(r.ok for r in results.values())
    assert len(pids) == 1  # one unit, so one thread and one child
    assert stats["misses"] == 1
    assert stats["hits"] == len(specs) - 1
    inline = SweepRunner(isolation="inline").run(specs)
    assert {k: v.value for k, v in results.items()} == \
        {k: v.value for k, v in inline.items()}
