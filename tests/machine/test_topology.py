"""Topology, hotplug, and the paper's CPU-count methodology."""

import pytest

from repro.machine.topology import MachineSpec, R410_SPEC, Topology, WYEAST_SPEC


def test_paper_machines_shape():
    for spec in (WYEAST_SPEC, R410_SPEC):
        assert spec.n_physical_cores == 4
        assert spec.n_logical_cpus == 8
        assert spec.memory_bytes == 12 << 30


def test_linux_cpu_numbering():
    """cpu i and cpu i+ncores are HTT siblings (Nehalem/Linux layout)."""
    topo = Topology(R410_SPEC)
    for c in range(4):
        assert topo.cpus[c].core.index == c
        assert topo.cpus[c + 4].core.index == c
        assert topo.cpus[c].sibling is topo.cpus[c + 4]
        assert topo.cpus[c + 4].sibling is topo.cpus[c]
        assert topo.cpus[c].thread_slot == 0
        assert topo.cpus[c + 4].thread_slot == 1


def online(topo):
    return sorted(c.index for c in topo.cpus if c.online)


def htt_active(topo):
    """Some physical core has both siblings online."""
    return any(sum(t.online for t in core.threads) > 1 for core in topo.cores)


def test_set_logical_cpus_onlining_order():
    """§IV.A: 1-4 CPUs = primaries only (HTT-off-like); 5-8 add siblings."""
    topo = Topology(R410_SPEC)
    topo.set_logical_cpus(3)
    assert online(topo) == [0, 1, 2]
    assert not htt_active(topo)
    topo.set_logical_cpus(6)
    assert online(topo) == [0, 1, 2, 3, 4, 5]  # 4 primaries + 2 siblings
    assert htt_active(topo)
    topo.set_logical_cpus(8)
    assert topo.n_online == 8


def test_set_logical_cpus_bounds():
    topo = Topology(R410_SPEC)
    with pytest.raises(ValueError):
        topo.set_logical_cpus(0)
    with pytest.raises(ValueError):
        topo.set_logical_cpus(9)


def test_cpu0_cannot_offline():
    topo = Topology(R410_SPEC)
    with pytest.raises(ValueError):
        topo.set_online(0, False)


def test_htt_toggle():
    topo = Topology(R410_SPEC)
    topo.set_htt(False)
    assert topo.n_online == 4
    assert not htt_active(topo)
    assert all(c.thread_slot == 0 for c in topo.cpus if c.online)
    topo.set_htt(True)
    assert topo.n_online == 8


def test_offline_sibling_keeps_core_usable():
    """Offlining an HTT sibling leaves the physical core online with one
    thread — the kernel 'ignores the HTT sibling for scheduling'."""
    topo = Topology(R410_SPEC)
    topo.set_online(4, False)  # sibling of cpu0
    core0 = topo.cores[0]
    assert [t.index for t in core0.threads if t.online] == [0]


def test_listener_fires_on_transitions_only():
    topo = Topology(R410_SPEC)
    events = []
    topo.add_listener(lambda c: events.append((c.index, c.online)))
    topo.set_online(5, False)
    topo.set_online(5, False)  # no-op
    topo.set_online(5, True)
    assert events == [(5, False), (5, True)]


def test_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec("bad", 0, 4, 2, 1e9, 1 << 30)
    with pytest.raises(ValueError):
        MachineSpec("bad", 1, 4, 3, 1e9, 1 << 30)
    with pytest.raises(ValueError):
        MachineSpec("bad", 1, 4, 2, 0.0, 1 << 30)
