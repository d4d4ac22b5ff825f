"""CPU execution: timing exactness, processor sharing, HTT coupling."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.machine.profile import WorkloadProfile
from repro.machine.cache import CacheHierarchy, CacheSpec
from repro.machine.topology import R410_SPEC, WYEAST_SPEC, MachineSpec
from repro.system import make_machine

REG = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0,
                      htt_yield=1.0, working_set_bytes=1024)
REG_HTT = replace(REG, htt_yield=1.5)


def run_workers(machine, n, work, profile, affinity=None):
    tasks = []

    def body(task):
        yield from task.compute(work)
        return task.now_ns()

    for i in range(n):
        tasks.append(machine.scheduler.spawn(body, f"w{i}", profile, affinity))
    machine.engine.run()
    return tasks


def test_single_task_exact_time():
    m = make_machine(WYEAST_SPEC)
    work = WYEAST_SPEC.base_hz * 0.5  # half a second at efficiency 1
    (t,) = run_workers(m, 1, work, REG)
    assert t.finished_ns / 1e9 == pytest.approx(0.5, rel=1e-6)


def test_two_tasks_one_cpu_processor_sharing():
    m = make_machine(WYEAST_SPEC)
    work = WYEAST_SPEC.base_hz * 0.1
    # pin both to cpu0: each gets half the rate -> both finish at 0.2 s
    tasks = run_workers(m, 2, work, REG, affinity={0})
    for t in tasks:
        assert t.finished_ns / 1e9 == pytest.approx(0.2, rel=1e-4)


def test_tasks_spread_to_distinct_physical_cores():
    m = make_machine(R410_SPEC)
    work = R410_SPEC.base_hz * 0.05
    tasks = run_workers(m, 4, work, REG)
    # 4 tasks on 4 physical cores: all at full speed, no HTT penalty.
    for t in tasks:
        assert t.finished_ns / 1e9 == pytest.approx(0.05, rel=1e-4)


def test_htt_yield_one_halves_sibling_throughput():
    m = make_machine(R410_SPEC)
    work = R410_SPEC.base_hz * 0.1
    # pin two tasks to the two siblings of core0 (cpus 0 and 4)
    tasks = []

    def body(task):
        yield from task.compute(work)
        return task.now_ns()

    tasks.append(m.scheduler.spawn(body, "a", REG, affinity={0}))
    tasks.append(m.scheduler.spawn(body, "b", REG, affinity={4}))
    m.engine.run()
    # htt_yield=1.0: the pair delivers 1 core's worth; each runs at 0.5.
    for t in tasks:
        assert t.finished_ns / 1e9 == pytest.approx(0.2, rel=1e-4)


def test_htt_yield_above_one_beats_sharing():
    m = make_machine(R410_SPEC)
    work = R410_SPEC.base_hz * 0.1

    def body(task):
        yield from task.compute(work)
        return task.now_ns()

    a = m.scheduler.spawn(body, "a", REG_HTT, affinity={0})
    b = m.scheduler.spawn(body, "b", REG_HTT, affinity={4})
    m.engine.run()
    # yield 1.5: each sibling runs at 0.75 -> 0.1/0.75 s.
    expect = 0.1 / 0.75
    assert a.finished_ns / 1e9 == pytest.approx(expect, rel=1e-4)
    assert b.finished_ns / 1e9 == pytest.approx(expect, rel=1e-4)


def test_mixed_yield_uses_mean_of_task_mix():
    m = make_machine(R410_SPEC)
    work = R410_SPEC.base_hz * 0.1

    def body(task):
        yield from task.compute(work)

    a = m.scheduler.spawn(body, "a", REG, affinity={0})          # yield 1.0
    b = m.scheduler.spawn(body, "b", REG_HTT, affinity={4})      # yield 1.5
    m.engine.run()
    # mean yield 1.25 -> each sibling at 0.625
    expect = 0.1 / 0.625
    assert a.finished_ns / 1e9 == pytest.approx(expect, rel=1e-4)


def test_smm_freeze_stops_all_cpus():
    """An SMI freezes every logical CPU simultaneously (§II.A)."""
    m = make_machine(R410_SPEC)
    work = R410_SPEC.base_hz * 0.1
    tasks = []

    def body(task):
        yield from task.compute(work)
        return task.now_ns()

    for i, cpu in enumerate((0, 1, 2, 3)):
        tasks.append(m.scheduler.spawn(body, f"w{i}", REG, affinity={cpu}))
    m.engine.schedule(50_000_000, m.node.smm.trigger, 30_000_000)
    m.engine.run()
    for t in tasks:
        # 0.1 s of work + 30 ms freeze (+ entry latency)
        assert t.finished_ns / 1e9 == pytest.approx(0.13, rel=1e-2)


def test_gross_hz_zero_when_offline_or_idle():
    m = make_machine(R410_SPEC)
    cpu = m.node.cpu(1)
    assert cpu.gross_hz() == 0.0  # idle
    m.node.topology.set_online(1, False)
    assert cpu.gross_hz() == 0.0


def test_placing_work_on_offline_cpu_rejected():
    m = make_machine(R410_SPEC)
    m.node.topology.set_online(5, False)
    from repro.simx.rate import WorkItem

    item = WorkItem(m.engine, 100.0, meta=None)
    with pytest.raises(RuntimeError):
        m.node.cpu(5).add_segment(item)


# -- integer working-set sums --------------------------------------------------

TWO_SOCKET_HTT = MachineSpec(
    name="2s-htt", sockets=2, cores_per_socket=2, threads_per_core=2,
    base_hz=2.0e9, memory_bytes=8 << 30,
    cache_levels=(CacheSpec("L1", 32 << 10, "core"),
                  CacheSpec("L2", 256 << 10, "core"),
                  CacheSpec("L3", 8 << 20, "socket")),
)
MIXED = [
    WorkloadProfile(name=f"p{i}", htt_yield=1.0 + 0.07 * i,
                    working_set_bytes=(3 << 20) + 4099 * i,
                    base_miss_rate=0.01 * (i + 1), mem_ref_fraction=0.3)
    for i in range(5)
]


def _list_sum_rates(node, cpu):
    """The rate formula spelled the slow way, per CPU: the
    :meth:`LogicalCpu.gross_hz` mix, then
    :meth:`CacheHierarchy.efficiency` over co-resident profile lists.
    A fresh hierarchy keeps its memo apart from the node's."""
    profs = cpu.profiles()
    gross = cpu.gross_hz()
    if gross <= 0.0:
        return [0.0] * len(profs)
    sib = cpu.state.sibling
    core = list(profs)
    if sib is not None and sib.online:
        core += node.cpu(sib.index).profiles()
    sock = cpu.state.core.socket
    socket = [p for c in node.cpus
              if c.state.online and c.state.core.socket == sock
              for p in c.profiles()]
    share_hz = gross / len(profs)
    hier = CacheHierarchy(node.cache_hierarchy.levels)
    return [share_hz * hier.efficiency(p, core, socket) / 1e9 for p in profs]


#: Working sets on both sides of each level's fit boundary (32 KB L1,
#: 256 KB L2, 8 MB L3), alone and summed with co-residents.
_WS = (16 << 10, 40 << 10, 200 << 10, 300 << 10, 3 << 20, 5 << 20, 9 << 20)
_PROFILE = st.builds(
    lambda ws, y, miss, sens: WorkloadProfile(
        name="h", htt_yield=y, working_set_bytes=ws, base_miss_rate=miss,
        mem_ref_fraction=0.3, cache_sensitivity=sens),
    st.sampled_from(_WS),
    # Yields whose float sum depends on the order they are added in.
    st.one_of(st.sampled_from((0.1, 0.2, 0.3, 0.7, 1.1, 1.3)),
              st.floats(0.05, 2.0)),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0))
#: Siblings holding yields (0.1, 0.1) and (0.1, 0.3): their float sum
#: differs when the sibling's items come first.
_ORDER = [WorkloadProfile(name="y1", htt_yield=0.1),
          WorkloadProfile(name="y3", htt_yield=0.3)]
#: Per CPU: offline, idle, or the pool indices of its resident segments.
_CPU = st.tuples(
    st.sampled_from(("busy", "busy", "busy", "idle", "offline")),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
).map(lambda t: {"busy": t[1], "idle": [], "offline": "offline"}[t[0]])


@settings(max_examples=60, deadline=None)
@given(pool=st.lists(_PROFILE, min_size=1, max_size=4),
       cpus=st.lists(_CPU, min_size=8, max_size=8),
       frozen=st.booleans(),
       degraded=st.one_of(st.none(), st.tuples(st.integers(0, 7),
                                               st.floats(0.1, 0.99))))
@example(pool=MIXED,
         cpus=[[0, 1, 2], [4], [1, 1], [3], [3], [], [2, 0], [4, 4, 0]],
         frozen=False, degraded=None)
@example(pool=_ORDER, cpus=[[0, 0], [], [], [], [0, 1], [], [], []],
         frozen=False, degraded=None)
def test_integer_sum_rates_equal_list_sum_rates_bit_for_bit(
        pool, cpus, frozen, degraded):
    """Stacked CPUs, busy, idle and offline HTT siblings, repeated and
    mixed profile objects, two sockets, a frozen node and a degraded
    busy CPU: after the settle pass every installed rate is the list-sum
    rate exactly.  Segments arrive at staggered instants, and every
    settle pass leaves each busy executor synced to *now*, so no window
    is left to integrate at the rates it installed."""
    m = make_machine(TWO_SOCKET_HTT)
    node = m.node
    # cpu i and i+4 are siblings; cores 0-1 on socket 0, 2-3 on socket 1.
    for i, spec in enumerate(cpus):
        if spec == "offline" and i != 0:
            m.sysfs.set_online(i, False)
    settle = node._settle

    def checked_settle():
        settle()
        for cpu in node._busy:
            assert cpu.executor._last_sync == m.engine.now

    node._settle = checked_settle
    work = TWO_SOCKET_HTT.base_hz

    def body(delay):
        def inner(task):
            yield from task.sleep(delay)
            yield from task.compute(work)

        return inner

    busy = 0
    for i, spec in enumerate(cpus):
        if spec == "offline":
            continue  # cpu0 stays online (and idle) in this case
        busy += bool(spec)
        for k, j in enumerate(spec):
            m.scheduler.spawn(body(37 * len(m.scheduler.tasks)), f"c{i}.{k}",
                              pool[j % len(pool)], affinity={i})
    m.engine.run(until_ns=2_000)
    if degraded is not None and node._busy:
        node._busy[degraded[0] % len(node._busy)].degrade(degraded[1])
    if frozen:
        node.freeze()
    node.recompute()
    m.engine.settle()
    assert len(node._busy) == busy
    for cpu in node._busy:
        # the executor's rate slots are in item order
        got = [r.hex() for r in cpu.executor._rate]
        assert got == [r.hex() for r in _list_sum_rates(node, cpu)]
