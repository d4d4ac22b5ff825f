"""The sysfs hotplug front-end (§IV.A methodology)."""

import pytest

from repro.machine.profile import WorkloadProfile
from repro.machine.topology import R410_SPEC
from repro.system import make_machine

REG = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0)


def online(topo):
    return sorted(c.index for c in topo.cpus if c.online)


def htt_active(topo):
    """Some physical core has both siblings online."""
    return any(sum(t.online for t in core.threads) > 1 for core in topo.cores)


def test_set_logical_cpus_matches_paper_order():
    m = make_machine(R410_SPEC)
    for k, expected in ((1, [0]), (4, [0, 1, 2, 3]), (5, [0, 1, 2, 3, 4]),
                        (8, list(range(8)))):
        m.sysfs.set_logical_cpus(k)
        assert online(m.node.topology) == expected, k
        assert m.node.topology.n_online == k


def test_shrink_migrates_running_work():
    m = make_machine(R410_SPEC)
    tasks = []

    def body(task):
        yield from task.compute(R410_SPEC.base_hz * 0.5)
        return task.now_ns()

    for i in range(8):
        tasks.append(m.scheduler.spawn(body, f"w{i}", REG))
    m.engine.run(until_ns=10_000_000)
    m.sysfs.set_logical_cpus(2)
    m.engine.run()
    # all complete; with 8 tasks on 2 CPUs the tail is ~4× one-task time
    finish = max(t.proc.result for t in tasks) / 1e9
    assert finish > 1.5  # heavily serialized, proving the shrink applied
    for t in tasks:
        assert not t.proc.alive


def test_htt_toggle_via_sysfs():
    m = make_machine(R410_SPEC)
    m.sysfs.set_htt(False)
    assert m.node.topology.n_online == 4
    assert not htt_active(m.node.topology)
    m.sysfs.set_htt(True)
    assert m.node.topology.n_online == 8


def test_grow_after_shrink_speeds_completion():
    m = make_machine(R410_SPEC)
    m.sysfs.set_logical_cpus(1)

    def body(task):
        yield from task.compute(R410_SPEC.base_hz * 0.4)
        return task.now_ns()

    a = m.scheduler.spawn(body, "a", REG)
    b = m.scheduler.spawn(body, "b", REG)
    # after 0.1 s, online a second CPU — the pair should split
    m.engine.schedule(100_000_000, m.sysfs.set_logical_cpus, 2)
    m.engine.run(until_ns=99_000_000)
    assert a.cpu.index == b.cpu.index == 0  # sharing cpu0
    m.engine.run()
    # sharing for 0.1 s then parallel: total ≈ 0.1 + 0.35 < serial 0.8
    assert max(a.proc.result, b.proc.result) / 1e9 < 0.6
