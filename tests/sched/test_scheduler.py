"""Scheduler: placement policy, balancing, misplacement mechanism."""

import pytest

from repro.machine.profile import WorkloadProfile
from repro.machine.topology import R410_SPEC
from repro.sched.scheduler import BALANCE_PERIOD_NS
from repro.sched.task import TaskState
from repro.system import make_machine

REG = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0,
                      htt_yield=1.0)


def spawn_spinners(m, n, seconds=1.0):
    work = R410_SPEC.base_hz * seconds
    tasks = []

    def body(task):
        yield from task.compute(work)

    for i in range(n):
        tasks.append(m.scheduler.spawn(body, f"s{i}", REG))
    return tasks


def test_placement_spreads_physical_cores_first():
    """With 4 tasks and 8 logical CPUs, each task gets its own core."""
    m = make_machine(R410_SPEC)
    tasks = spawn_spinners(m, 4)
    m.engine.run(until_ns=1_000_000)
    cores = {t.cpu.state.core.index for t in tasks}
    assert len(cores) == 4


def test_fifth_task_lands_on_a_sibling():
    m = make_machine(R410_SPEC)
    tasks = spawn_spinners(m, 5)
    m.engine.run(until_ns=1_000_000)
    assert all(t.cpu.n_tasks == 1 for t in tasks)  # nobody stacked
    cores = [t.cpu.state.core.index for t in tasks]
    assert len(set(cores)) == 4  # one core hosts two siblings


def test_oversubscription_stacks_evenly():
    m = make_machine(R410_SPEC)
    tasks = spawn_spinners(m, 16)
    m.engine.run(until_ns=1_000_000)
    loads = sorted(cpu.n_tasks for cpu in m.node.cpus)
    assert loads == [2] * 8


def test_idle_balance_pulls_from_stacked_cpu():
    """When a task finishes and leaves an idle CPU next to a stacked one,
    the idle balance rebalances within microseconds."""
    m = make_machine(R410_SPEC)
    m.sysfs.set_logical_cpus(2)
    # Three tasks on two CPUs: loads 2/1. When the solo one finishes, the
    # stacked pair must split across both CPUs.
    short = R410_SPEC.base_hz * 0.01
    long = R410_SPEC.base_hz * 1.0
    done = []

    def body(kind, work):
        def inner(task):
            yield from task.compute(work)
            done.append(kind)

        return inner

    a = m.scheduler.spawn(body("long", long), "a", REG)
    b = m.scheduler.spawn(body("long", long), "b", REG)
    c = m.scheduler.spawn(body("short", short), "c", REG)
    m.engine.run(until_ns=int(0.5e9))
    # After the short task exits, a and b should occupy distinct CPUs.
    assert a.cpu is not None and b.cpu is not None
    assert a.cpu.index != b.cpu.index


def test_evacuate_moves_work():
    m = make_machine(R410_SPEC)
    tasks = spawn_spinners(m, 2)
    m.engine.run(until_ns=1_000)
    victim_cpu = tasks[0].cpu.index
    m.scheduler.evacuate(victim_cpu)
    assert all(t.cpu.index != victim_cpu for t in tasks if t.cpu)


def test_sysfs_offline_with_running_tasks():
    m = make_machine(R410_SPEC)
    tasks = spawn_spinners(m, 8, seconds=0.2)
    m.engine.run(until_ns=1_000_000)
    m.sysfs.set_logical_cpus(2)
    assert m.node.topology.n_online == 2
    m.engine.run()
    # everyone completes despite the shrink
    assert all(t.proc.result is None and not t.proc.alive for t in tasks)


def test_misplacement_needs_htt():
    """The post-SMM wake-up misplacement cannot happen with HTT off —
    the mechanism behind Tables 4–5 being an HTT phenomenon."""
    from repro.core.smi import SmiProfile, SmiSource

    def run(htt: bool) -> int:
        m = make_machine(R410_SPEC, seed=7)
        if not htt:
            m.sysfs.set_htt(False)
        SmiSource(m.node, SmiProfile.LONG, 300, seed=3)
        tasks = spawn_spinners(m, 4, seconds=3.0)
        done = m.engine.event("all")
        remaining = {"n": len(tasks)}

        def on_done(_):
            remaining["n"] -= 1
            if remaining["n"] == 0 and not done.triggered:
                done.succeed()

        for t in tasks:
            t.proc.done_event.add_callback(on_done)
        m.engine.run_until(done)
        return m.scheduler.misplacements

    assert run(htt=False) == 0
    assert run(htt=True) >= 1  # seeded: the 300 ms interval forces many tries


def test_periodic_balancer_heals_sibling_sharing():
    m = make_machine(R410_SPEC, seed=1)
    tasks = spawn_spinners(m, 2, seconds=2.0)
    m.engine.run(until_ns=1_000_000)
    # Manually force a sibling-sharing misplacement.
    a, b = tasks
    sib = a.cpu.state.sibling
    item = b.current_item
    m.node.recompute()
    b.cpu.remove_segment(item)
    m.node.cpu(sib.index).add_segment(item)
    b.cpu = m.node.cpu(sib.index)
    assert b.cpu.state.core is a.cpu.state.core
    # The periodic balancer must undo it within one period.
    m.engine.run(until_ns=m.engine.now + BALANCE_PERIOD_NS + 1_000_000)
    assert b.cpu.state.core is not a.cpu.state.core


def test_deterministic_given_seed():
    def run(seed):
        from repro.core.smi import SmiProfile, SmiSource

        m = make_machine(R410_SPEC, seed=seed)
        SmiSource(m.node, SmiProfile.LONG, 500, seed=seed)
        tasks = spawn_spinners(m, 6, seconds=1.5)
        done = m.engine.event("all")
        remaining = {"n": len(tasks)}

        def on_done(_):
            remaining["n"] -= 1
            if remaining["n"] == 0 and not done.triggered:
                done.succeed()

        for t in tasks:
            t.proc.done_event.add_callback(on_done)
        m.engine.run_until(done)
        return [t.finished_ns for t in tasks]

    assert run(11) == run(11)
    assert run(11) != run(12)  # different SMI phase ⇒ different trace


# -- the no-op rebalance skip ------------------------------------------------

def _resident_items(m):
    items = [it for cpu in m.node.cpus for it in cpu.executor.items]
    return sorted(items, key=lambda it: it.meta.tid)


def _rate_state(m):
    """Per-CPU resident order, rate bits and completion timer, once the
    instant has settled."""
    m.engine.settle()
    cpus = []
    for cpu in m.node.cpus:
        ex = cpu.executor
        armed = ex._timer is not None and not ex._timer[5]
        cpus.append(([it.meta.name for it in ex.items],
                     [r.hex() for r in ex._rate],
                     armed, ex._timer_time if armed else None))
    return cpus


def _accounts(tasks):
    return [(t.acct.kernel_ns, t.acct.true_ns, t.acct.stolen_ns)
            for t in tasks]


@pytest.mark.parametrize("cpus, n", [(1, 6), (2, 5), (8, 11)])
def test_noop_rebalance_matches_forced_full_path(cpus, n):
    """A rebalance that would rebuild the current placement skips the
    remove/re-add, yet settles to the item order, rate bits and timer
    fire times of the full path, and the run finishes every task at the
    same nanosecond with the same accounting."""
    from repro.core.smi import SmiProfile, SmiSource

    runs = []
    for force_full in (False, True):
        m = make_machine(R410_SPEC, seed=3)
        m.sysfs.set_logical_cpus(cpus)
        SmiSource(m.node, SmiProfile.LONG, 50, seed=5)
        tasks = spawn_spinners(m, n, seconds=0.05)
        m.engine.run(until_ns=3_000_000)
        sched = m.scheduler
        assert sched._placement_is_greedy(_resident_items(m))
        if force_full:
            sched._placement_is_greedy = lambda items: False
        sched.rebalance()
        state = _rate_state(m)
        m.engine.run()
        runs.append((state, [t.finished_ns for t in tasks],
                     _accounts(tasks)))
    assert runs[0] == runs[1]


def test_noop_check_honours_affinity():
    """A pinned task sits where the greedy pass must put it, so the
    placement is a no-op even though an unpinned task would move."""
    m = make_machine(R410_SPEC)
    m.sysfs.set_logical_cpus(2)
    work = R410_SPEC.base_hz * 0.01

    def body(task):
        yield from task.compute(work)

    a = m.scheduler.spawn(body, "a", REG, affinity={1})
    b = m.scheduler.spawn(body, "b", REG)
    m.engine.run(until_ns=1_000_000)
    assert (a.cpu.index, b.cpu.index) == (1, 0)
    assert m.scheduler._placement_is_greedy(_resident_items(m))


def test_changed_placement_takes_full_path():
    m = make_machine(R410_SPEC)
    m.sysfs.set_logical_cpus(2)
    tasks = spawn_spinners(m, 4)
    m.engine.run(until_ns=1_000_000)
    assert [cpu.n_tasks for cpu in m.node.cpus[:2]] == [2, 2]
    # Stack a third task on cpu0 by hand: loads 3/1 are not greedy.
    moved = next(t for t in tasks if t.cpu.index == 1)
    node, target = m.node, m.node.cpu(0)
    node.recompute()
    moved.cpu.remove_segment(moved.current_item)
    target.add_segment(moved.current_item)
    moved.cpu = target
    assert not m.scheduler._placement_is_greedy(_resident_items(m))
    m.scheduler.rebalance()
    assert [cpu.n_tasks for cpu in m.node.cpus[:2]] == [2, 2]
    assert m.scheduler._placement_is_greedy(_resident_items(m))


# -- the lone-segment fast path ----------------------------------------------

def _lone_segment(*, batched=False, degrade=None, smi_at_ns=None,
                  affinity=None):
    """Start one 10 ms segment on an idle node and run it to completion.

    ``batched`` owes the node a settle pass before the placement, which
    forces the general path; otherwise an unpinned segment takes the
    direct one.  Returns the settled state right after placement, the
    state after the run, and the number of rate passes the placement
    owed."""
    from repro.simx.rate import WorkItem

    m = make_machine(R410_SPEC, enable_balancer=False)
    node, sched, engine = m.node, m.scheduler, m.engine
    if degrade is not None:
        node.cpu(0).degrade(degrade)
        engine.settle()
    if smi_at_ns is not None:
        engine.schedule(smi_at_ns, node.smm.trigger, 2_000_000)
    task = sched.create_task("t", REG, affinity=affinity)
    item = WorkItem(engine, R410_SPEC.base_hz * 0.01, meta=task, name="t.seg")
    passes = []
    recompute = node.recompute
    node.recompute = lambda: (passes.append(1), recompute())
    if batched:
        node.recompute()
    sched.start_segment(task, item)
    del node.recompute
    engine.settle()
    ex = task.cpu.executor
    placed = ([r.hex() for r in ex._rate], ex._timer_time, engine._seq,
              [c.index for c in node._busy], task.cpu.index, task.state)
    engine.run()
    acct = task.acct
    done = (item.finished_at, acct.kernel_ns, acct.true_ns, acct.stolen_ns,
            node._busy, task.state, engine._seq)
    return placed, done, len(passes) - batched


@pytest.mark.parametrize("degrade, smi_at_ns", [
    (None, None), (0.5, None), (None, 3_000_000), (0.5, 3_000_000)])
def test_lone_segment_direct_path_matches_batched_path(degrade, smi_at_ns):
    """Placing a segment on an idle node without a settle pass gives the
    same rate bits, timer, sequence numbers, finish time and accounting
    as the general path — on a degraded CPU and across an SMI too."""
    direct = _lone_segment(degrade=degrade, smi_at_ns=smi_at_ns)
    general = _lone_segment(batched=True, degrade=degrade,
                            smi_at_ns=smi_at_ns)
    assert direct[2] == 0  # no settle pass owed: the direct path
    assert direct[:2] == general[:2]
    placed, done, _ = direct
    assert placed[3] == [0] and placed[5] is TaskState.RUNNING
    assert done[4] == [] and done[5] is TaskState.BLOCKED
    if smi_at_ns is None:
        # 10 ms of work at full rate, twice that on a half-rate CPU.
        assert done[0] == (10_000_000 if degrade is None else 20_000_000)
    else:
        assert done[3] > 0  # the SMI landed mid-segment


def test_pinned_task_takes_the_general_path():
    pinned = _lone_segment(affinity={0})
    assert pinned[2] == 1
    assert pinned[:2] == _lone_segment()[:2]


def test_frozen_node_takes_the_general_path():
    from repro.simx.rate import WorkItem

    m = make_machine(R410_SPEC, enable_balancer=False)
    node, sched = m.node, m.scheduler
    node.freeze()
    task = sched.create_task("t", REG)
    item = WorkItem(m.engine, R410_SPEC.base_hz * 0.01, meta=task)
    passes = []
    recompute = node.recompute
    node.recompute = lambda: (passes.append(1), recompute())
    sched.start_segment(task, item)
    assert passes == [1]
    del node.recompute
    m.engine.settle()
    assert task.cpu.executor._rate == [0.0]  # no progress inside SMM
    node.unfreeze()
    m.engine.run()
    assert item.finished_at == 10_000_000
