"""Timeline recording and querying."""

from repro.simx import Timeline


def build():
    tl = Timeline()
    tl.record(0, "smm.enter", "node0", duration_ns=100)
    tl.record(100, "smm.exit", "node0")
    tl.record(150, "task.run", "node0", task="a")
    tl.record(200, "smm.enter", "node1")
    tl.record(260, "smm.exit", "node1")
    tl.record(300, "smm.enter", "node0")
    tl.record(450, "smm.exit", "node0")
    return tl


def test_select_by_kind_prefix():
    tl = build()
    assert len(tl.select(kind="smm.")) == 6
    assert len(tl.select(kind="smm.enter")) == 3
    assert len(tl.select(kind="task")) == 1


def test_select_by_where_and_window():
    tl = build()
    assert len(tl.select(where="node0")) == 5
    assert len(tl.select(t0=100, t1=300)) == 4  # [100, 300)
    assert len(tl.select(kind="smm.enter", where="node0", t0=100)) == 1


def test_select_with_predicate():
    tl = build()
    hits = tl.select(pred=lambda r: r.data.get("task") == "a")
    assert len(hits) == 1 and hits[0].kind == "task.run"


def test_disabled_timeline_is_inert():
    # The zero-cost-when-disabled contract: a disabled timeline records
    # nothing, not even counters (hot call sites skip the call entirely
    # behind an ``if tl.enabled`` test).
    tl = Timeline(enabled=False)
    tl.record(0, "smm.enter", "n")
    assert len(tl) == 0
    assert tl.count("smm.enter") == 0
    tl.enabled = True
    tl.record(1, "smm.enter", "n")
    assert len(tl) == 1
    assert tl.count("smm.enter") == 1


def test_intervals_pairing():
    tl = build()
    assert tl.intervals("smm.enter", "smm.exit", where="node0") == [(0, 100), (300, 450)]
    assert tl.intervals("smm.enter", "smm.exit", where="node1") == [(200, 260)]


def test_intervals_drop_unclosed():
    tl = Timeline()
    tl.record(10, "smm.enter", "n")
    assert tl.intervals("smm.enter", "smm.exit") == []


def test_total_overlap_clipping():
    ivals = [(0, 100), (300, 450)]
    assert Timeline.total_overlap(ivals, 50, 350) == 50 + 50
    assert Timeline.total_overlap(ivals, 500, 600) == 0
    assert Timeline.total_overlap(ivals, 0, 1000) == 250


def test_live_cluster_residency_matches_smm_stats():
    """End-to-end: timeline residency equals the controller's totals."""
    from repro.core.smi import SmiProfile
    from repro.machine.profile import COMPUTE_BOUND
    from repro.mpi import Cluster, ClusterSpec, run_mpi_job

    c = Cluster(ClusterSpec(n_nodes=2), seed=3)
    c.enable_smi(SmiProfile.LONG, 300, seed=3)

    def app(rk):
        yield from rk.compute(2.27e9 * 1.0)
        return None

    run_mpi_job(c, app, nranks=2, profile=COMPUTE_BOUND)
    t1 = c.engine.now
    for node in c.nodes:
        ivals = c.timeline.intervals("smm.enter", "smm.exit", where=node.name)
        total = Timeline.total_overlap(ivals, 0, t1)
        # timeline-derived residency within one (possibly clipped) SMI of
        # the controller's accounting
        assert abs(total - node.smm.stats.total_ns) <= 111_000_000
        assert total / t1 > 0.2  # 105/300 ≈ 35 % duty
