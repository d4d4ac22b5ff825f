"""Point-to-point semantics: matching, wildcards, ordering, requests."""

import pytest

from repro.machine.profile import COMPUTE_BOUND
from repro.mpi import ANY_SOURCE, ANY_TAG, Cluster, ClusterSpec, run_mpi_job


def run_app(app, nranks=2, ranks_per_node=1, n_nodes=None):
    c = Cluster(ClusterSpec(n_nodes=n_nodes or nranks))
    return run_mpi_job(c, app, nranks=nranks, ranks_per_node=ranks_per_node,
                       profile=COMPUTE_BOUND)


def test_send_recv_payload():
    def app(rk):
        if rk.rank == 0:
            yield from rk.send(1, 64, {"a": 7}, tag=11)
            return "sent"
        msg = yield from rk.recv(0, tag=11)
        return msg.payload

    res = run_app(app)
    assert res.rank_results == ["sent", {"a": 7}]


def test_recv_blocks_until_message():
    def app(rk):
        if rk.rank == 0:
            yield from rk.compute(2.27e9 * 0.05)  # ~50 ms before sending
            yield from rk.send(1, 8, "late")
            return 0.0
        t0 = rk.now_ns()
        yield from rk.recv(0)
        return (rk.now_ns() - t0) / 1e9

    res = run_app(app)
    assert res.rank_results[1] > 0.04


def test_tag_matching_selects_correct_message():
    def app(rk):
        if rk.rank == 0:
            yield from rk.send(1, 8, "first", tag=1)
            yield from rk.send(1, 8, "second", tag=2)
            return None
        m2 = yield from rk.recv(0, tag=2)
        m1 = yield from rk.recv(0, tag=1)
        return (m1.payload, m2.payload)

    res = run_app(app)
    assert res.rank_results[1] == ("first", "second")


def test_any_source_and_any_tag():
    def app(rk):
        if rk.rank == 2:
            got = []
            for _ in range(2):
                m = yield from rk.recv(ANY_SOURCE, ANY_TAG)
                got.append((m.src, m.payload))
            return sorted(got)
        yield from rk.send(2, 8, f"from{rk.rank}", tag=rk.rank)
        return None

    res = run_app(app, nranks=3)
    assert res.rank_results[2] == [(0, "from0"), (1, "from1")]


def test_non_overtaking_same_src_same_tag():
    def app(rk):
        if rk.rank == 0:
            for i in range(5):
                yield from rk.send(1, 8, i, tag=0)
            return None
        got = []
        for _ in range(5):
            m = yield from rk.recv(0, tag=0)
            got.append(m.payload)
        return got

    res = run_app(app)
    assert res.rank_results[1] == [0, 1, 2, 3, 4]


def test_irecv_then_wait():
    def app(rk):
        if rk.rank == 0:
            req = rk.irecv(1, tag=5)
            assert req.test() is None  # not yet complete
            yield from rk.send(1, 8, "ping", tag=4)
            msg = yield from rk.wait(req)
            return msg.payload
        yield from rk.recv(0, tag=4)
        yield from rk.send(0, 8, "pong", tag=5)
        return None

    res = run_app(app)
    assert res.rank_results[0] == "pong"


def test_sendrecv_exchanges_without_deadlock():
    def app(rk):
        partner = 1 - rk.rank
        m = yield from rk.sendrecv(partner, 1024, f"r{rk.rank}",
                                   src=partner, send_tag=3, recv_tag=3)
        return m.payload

    res = run_app(app)
    assert res.rank_results == ["r1", "r0"]


def test_bad_destination_rejected():
    def app(rk):
        try:
            yield from rk.send(99, 8)
        except ValueError:
            return "rejected"

    res = run_app(app)
    assert res.rank_results[0] == "rejected"


def test_message_counters():
    def app(rk):
        if rk.rank == 0:
            yield from rk.send(1, 100)
            yield from rk.send(1, 200)
            return (rk.sent_messages, rk.sent_bytes)
        yield from rk.recv(0)
        yield from rk.recv(0)
        return rk.recv_messages

    res = run_app(app)
    assert res.rank_results == [(2, 300), 2]


def test_unmatched_recv_deadlocks_cleanly():
    c = Cluster(ClusterSpec(n_nodes=2))

    def app(rk):
        if rk.rank == 1:
            yield from rk.recv(0, tag=42)  # never sent
        else:
            yield from rk.compute(1000.0)
        return None

    with pytest.raises(RuntimeError, match="did not finish"):
        run_mpi_job(c, app, nranks=2, profile=COMPUTE_BOUND, limit_s=1.0)
