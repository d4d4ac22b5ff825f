"""Collective algorithms: value correctness at assorted rank counts."""

import pytest

from repro.machine.profile import COMPUTE_BOUND
from repro.mpi import Cluster, ClusterSpec, run_mpi_job

SIZES = [1, 2, 3, 4, 5, 8, 16]


def run_app(app, nranks, ranks_per_node=1):
    n_nodes = (nranks + ranks_per_node - 1) // ranks_per_node
    c = Cluster(ClusterSpec(n_nodes=n_nodes))
    return run_mpi_job(c, app, nranks=nranks, ranks_per_node=ranks_per_node,
                       profile=COMPUTE_BOUND)


@pytest.mark.parametrize("p", SIZES)
def test_barrier_synchronizes(p):
    """No rank passes the barrier before the slowest arrives.

    NOTE: release times are read from the *engine* clock — per-node
    CLOCK_MONOTONIC values include boot offsets and are not comparable
    across nodes (deliberately, like real unsynchronized cluster clocks).
    """

    def app(rk):
        yield from rk.compute(2.27e9 * 0.001 * (rk.rank + 1))  # staggered arrivals
        yield from rk.barrier()
        return rk.task.node.engine.now

    res = run_app(app, p)
    release = res.rank_results
    # everyone released at/after the slowest rank's arrival time
    assert min(release) >= 0.001 * p * 1e9 * 0.9
    # and close together (within communication skew, not compute stagger)
    assert max(release) - min(release) < 0.15 * max(release)


@pytest.mark.parametrize("p", SIZES)
def test_bcast_delivers_root_value(p):
    def app(rk):
        v = yield from rk.bcast("payload" if rk.rank == 0 else None, root=0)
        return v

    res = run_app(app, p)
    assert res.rank_results == ["payload"] * p


@pytest.mark.parametrize("p", [2, 4, 7])
def test_bcast_nonzero_root(p):
    def app(rk):
        root = p - 1
        v = yield from rk.bcast(rk.rank if rk.rank == root else None, root=root)
        return v

    res = run_app(app, p)
    assert res.rank_results == [p - 1] * p


@pytest.mark.parametrize("p", SIZES)
def test_reduce_sums_to_root(p):
    def app(rk):
        v = yield from rk.reduce(rk.rank + 1, root=0)
        return v

    res = run_app(app, p)
    assert res.rank_results[0] == p * (p + 1) // 2
    assert all(v is None for v in res.rank_results[1:])


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_sum_everywhere(p):
    def app(rk):
        v = yield from rk.allreduce(rk.rank + 1)
        return v

    res = run_app(app, p)
    assert res.rank_results == [p * (p + 1) // 2] * p


@pytest.mark.parametrize("p", [4, 8])
def test_allreduce_custom_op(p):
    def app(rk):
        v = yield from rk.allreduce(rk.rank + 1, op=lambda a, b: max(a, b))
        return v

    res = run_app(app, p)
    assert res.rank_results == [p] * p


@pytest.mark.parametrize("p", [3, 5])
def test_allreduce_non_power_of_two_path(p):
    def app(rk):
        v = yield from rk.allreduce([rk.rank], op=lambda a, b: a + b)
        return sorted(v)

    res = run_app(app, p)
    assert res.rank_results == [list(range(p))] * p


@pytest.mark.parametrize("p", [2, 4, 8, 16])
def test_alltoall_power_of_two(p):
    def app(rk):
        values = [f"{rk.rank}->{d}" for d in range(p)]
        out = yield from rk.alltoall(1024, values)
        return out

    res = run_app(app, p)
    for r, out in enumerate(res.rank_results):
        assert out == [f"{s}->{r}" for s in range(p)]


@pytest.mark.parametrize("p", [3, 6])
def test_alltoall_non_power_of_two(p):
    def app(rk):
        values = [(rk.rank, d) for d in range(p)]
        out = yield from rk.alltoall(64, values)
        return out

    res = run_app(app, p)
    for r, out in enumerate(res.rank_results):
        assert out == [(s, r) for s in range(p)]


def test_alltoall_values_length_checked():
    def app(rk):
        try:
            yield from rk.alltoall(8, values=[1])  # wrong length for p=2
        except ValueError:
            return "rejected"

    res = run_app(app, 2)
    assert res.rank_results[0] == "rejected"


def test_consecutive_collectives_do_not_cross_match():
    """Back-to-back collectives of the same type stay separated (per-call
    tags): a fast rank's round-2 traffic can't satisfy round 1."""

    def app(rk):
        a = yield from rk.allreduce(rk.rank)
        b = yield from rk.allreduce(rk.rank * 10)
        c = yield from rk.allreduce(rk.rank * 100)
        return (a, b, c)

    p = 4
    res = run_app(app, p)
    s = sum(range(p))
    assert res.rank_results == [(s, 10 * s, 100 * s)] * p


def test_collectives_under_smm_noise_still_correct():
    """Values survive arbitrary freeze interleavings (noise changes
    timing, never results)."""
    from repro.core.smi import SmiProfile

    c = Cluster(ClusterSpec(n_nodes=4))
    c.enable_smi(SmiProfile.LONG, 50, seed=5)

    def app(rk):
        total = yield from rk.allreduce(rk.rank + 1)
        out = yield from rk.alltoall(256, [rk.rank * 100 + d for d in range(rk.size)])
        return (total, out)

    res = run_mpi_job(c, app, nranks=4, profile=COMPUTE_BOUND)
    for r, (total, out) in enumerate(res.rank_results):
        assert total == 10
        assert out == [s * 100 + r for s in range(4)]
