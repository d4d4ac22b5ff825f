"""Task model: compute/sleep/wait, accounting, profile overrides."""

import pytest

from repro.machine.profile import WorkloadProfile
from repro.machine.topology import WYEAST_SPEC
from repro.sched.task import TaskState
from repro.system import make_machine

REG = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0)
SLOW = WorkloadProfile(name="slow", mem_ref_fraction=0.5, base_miss_rate=0.5)


def test_compute_then_done_state():
    m = make_machine(WYEAST_SPEC)

    def body(task):
        assert task.state is TaskState.NEW
        yield from task.compute(1000.0)
        return "ok"

    t = m.scheduler.spawn(body, "t", REG)
    m.engine.run()
    assert t.proc.result == "ok"
    assert t.state is TaskState.DONE
    assert t.finished_ns is not None


def test_zero_work_is_noop():
    m = make_machine(WYEAST_SPEC)

    def body(task):
        yield from task.compute(0.0)
        return task.now_ns()

    t = m.scheduler.spawn(body, "t", REG)
    m.engine.run()
    assert t.proc.result == 0


def test_negative_work_rejected():
    m = make_machine(WYEAST_SPEC)

    def parent(task):
        try:
            yield from task.compute(-1.0)
        except ValueError:
            return "rejected"

    t = m.scheduler.spawn(parent, "t", REG)
    m.engine.run()
    assert t.proc.result == "rejected"


def test_sleep_duration():
    m = make_machine(WYEAST_SPEC)

    def body(task):
        yield from task.sleep(123_456)
        return task.now_ns()

    t = m.scheduler.spawn(body, "t", REG)
    m.engine.run()
    assert t.proc.result == 123_456


def test_wait_event_value():
    m = make_machine(WYEAST_SPEC)
    ev = m.engine.event()

    def body(task):
        v = yield from task.wait(ev)
        return v

    t = m.scheduler.spawn(body, "t", REG)
    m.engine.schedule(10, ev.succeed, "payload")
    m.engine.run()
    assert t.proc.result == "payload"


def test_profile_override_restores_after_segment():
    m = make_machine(WYEAST_SPEC)

    def body(task):
        yield from task.compute(100.0, profile=SLOW)
        assert task.profile is REG
        yield from task.compute(100.0)

    t = m.scheduler.spawn(body, "t", REG)
    m.engine.run()
    assert t.acct.segments == 2


def test_accounting_counts_work_and_time():
    m = make_machine(WYEAST_SPEC)
    work = WYEAST_SPEC.base_hz * 0.25

    def body(task):
        yield from task.compute(work)

    t = m.scheduler.spawn(body, "t", REG)
    m.engine.run()
    assert t.acct.work_done == pytest.approx(work)
    assert t.acct.true_ns == pytest.approx(0.25e9, rel=1e-6)
    assert t.acct.stolen_ns == 0.0
    assert t.acct.kernel_ns == pytest.approx(t.acct.true_ns)


def test_accounting_separates_stolen_time():
    m = make_machine(WYEAST_SPEC)
    work = WYEAST_SPEC.base_hz * 0.1

    def body(task):
        yield from task.compute(work)

    t = m.scheduler.spawn(body, "t", REG)
    m.engine.schedule(20_000_000, m.node.smm.trigger, 50_000_000)
    m.engine.run()
    assert t.acct.stolen_ns == pytest.approx(50_005_000, rel=0.01)
    assert t.acct.true_ns == pytest.approx(0.1e9, rel=1e-3)
    assert t.acct.kernel_ns == pytest.approx(t.acct.true_ns + t.acct.stolen_ns)
    assert t.acct.stolen_ns / t.acct.true_ns == pytest.approx(0.5, rel=0.05)


def test_affinity_respected():
    m = make_machine(WYEAST_SPEC)

    def body(task):
        yield from task.compute(1000.0)
        return task.cpu  # None after completion, so capture inside

    placements = []

    def body2(task):
        yield from task.compute(WYEAST_SPEC.base_hz * 0.01)
        placements.append(task.tid)

    t = m.scheduler.spawn(body2, "t", REG, affinity={3})
    # inspect placement while running
    m.engine.schedule(1_000_000, lambda: placements.append(t.cpu.index))
    m.engine.run()
    assert 3 in placements
