"""WorkloadProfile validation and cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.profile import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    OS_INTENSIVE,
    WorkloadProfile,
)


def test_defaults_valid():
    p = WorkloadProfile(name="x")
    assert 0 < p.htt_yield <= 2


@pytest.mark.parametrize(
    "kw",
    [
        {"htt_yield": 0.0},
        {"htt_yield": 2.5},
        {"base_miss_rate": -0.1},
        {"base_miss_rate": 1.5},
        {"mem_ref_fraction": 2.0},
        {"working_set_bytes": -1},
        {"miss_penalty_ops": -1.0},
        {"cache_sensitivity": 1.5},
    ],
)
def test_validation_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        WorkloadProfile(name="bad", **kw)


@pytest.mark.parametrize("ws", [1024.0, 1.5, True, "1024", None])
def test_working_set_must_be_an_int(ws):
    """The rate pass sums working sets in any order: exact only for int."""
    with pytest.raises(ValueError, match="working_set_bytes"):
        WorkloadProfile(name="bad", working_set_bytes=ws)


def test_pure_register_workload_costs_exactly_one():
    p = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0)
    assert p.cost_per_op() == 1.0
    assert p.efficiency() == 1.0


def test_cost_increases_with_miss_rate():
    lo = WorkloadProfile(name="lo", base_miss_rate=0.01, mem_ref_fraction=0.3)
    hi = WorkloadProfile(name="hi", base_miss_rate=0.7, mem_ref_fraction=0.3)
    assert hi.cost_per_op() > lo.cost_per_op()


def test_extras_monotone():
    p = COMPUTE_BOUND
    base = p.cost_per_op()
    assert p.cost_per_op(extra_dram=0.1) > base
    assert p.cost_per_op(extra_mid=0.5) > base
    assert p.cost_per_op(0.1, 0.5) > p.cost_per_op(0.1, 0.0)


def test_dram_miss_saturates_at_one():
    p = WorkloadProfile(name="x", base_miss_rate=0.9, mem_ref_fraction=0.5)
    # extra beyond saturation changes nothing
    assert p.cost_per_op(extra_dram=0.5) == p.cost_per_op(extra_dram=0.2)


def test_solo_rate_scales_with_hz():
    p = COMPUTE_BOUND
    assert p.solo_rate(2e9) == pytest.approx(2 * p.solo_rate(1e9))
    assert p.solo_rate(2.27e9) < 2.27e9  # efficiency < 1 with memory refs


def test_canonical_profiles_encode_paper_taxonomy():
    # FP-intensive gains nothing from HTT (Leng et al. [4]).
    assert COMPUTE_BOUND.htt_yield == 1.0
    # Memory-bound thrashers gain little (the paper's CU convolve).
    assert MEMORY_BOUND.htt_yield < 1.2
    # OS/syscall mixes gain visibly (UnixBench's HTT benefit).
    assert OS_INTENSIVE.htt_yield > 1.2
    assert MEMORY_BOUND.base_miss_rate > 0.5


@settings(max_examples=50, deadline=None)
@given(
    miss=st.floats(min_value=0, max_value=1),
    mem=st.floats(min_value=0, max_value=1),
    ed=st.floats(min_value=0, max_value=1),
    em=st.floats(min_value=0, max_value=1),
)
def test_efficiency_always_in_unit_interval(miss, mem, ed, em):
    p = WorkloadProfile(name="p", base_miss_rate=miss, mem_ref_fraction=mem)
    eff = p.efficiency(ed, em)
    assert 0.0 < eff <= 1.0


def test_equal_profiles_share_memo_entries():
    """The hash is computed once, from the same fields equality compares:
    an equal profile built separately (or rebuilt by ``replace`` or a
    pickle round trip) hashes alike and hits the same efficiency memo
    entry, and a profile differing in one field does not."""
    import pickle
    from dataclasses import replace

    from repro.machine.topology import WYEAST_SPEC

    a = WorkloadProfile(name="m", working_set_bytes=3 << 20)
    twins = [WorkloadProfile(name="m", working_set_bytes=3 << 20),
             replace(a), pickle.loads(pickle.dumps(a))]
    hierarchy = WYEAST_SPEC.hierarchy()
    eff = hierarchy.efficiency_solo(a)
    for b in twins:
        assert b is not a and b == a and hash(b) == hash(a)
        assert hierarchy.efficiency_solo(b) == eff
    assert len(hierarchy._eff_cache) == 1
    other = replace(a, base_miss_rate=0.02)
    assert other != a
    hierarchy.efficiency_solo(other)
    assert len(hierarchy._eff_cache) == 2
