"""Interconnect: α–β math, NIC serialization, SMM delivery gating."""

import pytest

from repro.mpi.cluster import Cluster, ClusterSpec
from repro.mpi.network import NetworkSpec, Nic


def test_spec_math():
    spec = NetworkSpec(latency_ns=100_000, bandwidth_bps=100e6)
    assert spec.wire_ns(100_000_000) == pytest.approx(1e9, rel=1e-6)  # 100MB at 100MB/s
    assert spec.memcpy_ns(3_000_000_000) == pytest.approx(1e9, rel=1e-6)


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(latency_ns=-1)
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth_bps=0)


def test_nic_serializes_fifo():
    spec = NetworkSpec(bandwidth_bps=1e9)
    nic = Nic(spec)
    end1 = nic.occupy_tx(0, 1_000_000)  # 1 MB -> 1 ms
    end2 = nic.occupy_tx(0, 1_000_000)  # queued behind
    assert end1 == spec.wire_ns(1_000_000)
    assert end2 == 2 * end1
    # rx direction independent (full duplex)
    assert nic.occupy_rx(0, 1_000_000) == end1
    assert nic.tx_queue_delay(0) == end2  # tx busy until then


def test_transfer_alpha_beta_timing():
    c = Cluster(ClusterSpec(n_nodes=2))
    spec = c.network.spec
    arrived = []
    nbytes = 1_000_000
    c.network.transfer(c.nodes[0], c.nodes[1], nbytes, lambda: arrived.append(c.engine.now))
    c.engine.run()
    expect = 2 * spec.wire_ns(nbytes) + spec.latency_ns  # tx + alpha + rx
    assert arrived[0] == pytest.approx(expect, rel=1e-6)


def test_intra_node_bypasses_nic():
    c = Cluster(ClusterSpec(n_nodes=1))
    arrived = []
    c.network.transfer(c.nodes[0], c.nodes[0], 1_000_000, lambda: arrived.append(c.engine.now))
    c.engine.run()
    assert arrived[0] < c.network.spec.wire_ns(1_000_000)  # memcpy ≫ wire speed
    assert c.nodes[0].nic.tx_bytes == 0


def test_ranks_share_node_nic():
    """Two concurrent messages from one node serialize on its NIC."""
    c = Cluster(ClusterSpec(n_nodes=3))
    arrivals = {}
    n = 5_000_000
    c.network.transfer(c.nodes[0], c.nodes[1], n, lambda: arrivals.setdefault("a", c.engine.now))
    c.network.transfer(c.nodes[0], c.nodes[2], n, lambda: arrivals.setdefault("b", c.engine.now))
    c.engine.run()
    wire = c.network.spec.wire_ns(n)
    assert arrivals["b"] - arrivals["a"] == pytest.approx(wire, rel=1e-6)


def test_delivery_gated_by_destination_smm():
    """DMA lands during SMM, but host software sees the message at exit."""
    c = Cluster(ClusterSpec(n_nodes=2))
    seen = []
    dst = c.nodes[1]
    dst.smm.trigger(50_000_000)
    c.network.transfer(c.nodes[0], dst, 1000, lambda: seen.append(c.engine.now))
    c.engine.run()
    from repro.machine.smm import ENTRY_LATENCY_NS

    assert seen[0] == 50_000_000 + ENTRY_LATENCY_NS


def test_negative_size_rejected():
    c = Cluster(ClusterSpec(n_nodes=2))
    with pytest.raises(ValueError):
        c.network.transfer(c.nodes[0], c.nodes[1], -1, lambda: None)
