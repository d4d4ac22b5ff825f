"""Clock sources: free-running behaviour, jiffies, TSC conversions."""

import pytest

from repro.machine.clock import Clock, JIFFY_NS
from repro.simx import Engine


def test_jiffy_is_one_millisecond():
    """§III.B: 'In our system, one jiffy equals one millisecond.'"""
    assert JIFFY_NS == 1_000_000


def test_monotonic_follows_engine():
    eng = Engine()
    clk = Clock(eng)
    assert clk.monotonic_ns() == 0
    eng.schedule(5_000_000, lambda: None)
    eng.run()
    assert clk.monotonic_ns() == 5_000_000
    assert clk.monotonic_ns() // JIFFY_NS == 5  # 1 jiffy = 1 ms
    assert clk.seconds() == pytest.approx(0.005)


def test_boot_offset_differs_between_nodes():
    eng = Engine()
    a = Clock(eng, boot_offset_ns=0)
    b = Clock(eng, boot_offset_ns=1_000)
    assert b.monotonic_ns() - a.monotonic_ns() == 1_000


def test_tsc_frequency_and_conversion_roundtrip():
    eng = Engine()
    clk = Clock(eng, tsc_hz=2.27e9)
    eng.schedule(1_000_000_000, lambda: None)  # 1 s
    eng.run()
    assert clk.rdtsc() == pytest.approx(2.27e9, rel=1e-9)
    assert clk.tsc_to_ns(clk.rdtsc()) == pytest.approx(1e9, rel=1e-6)


def test_clock_ticks_during_smm():
    """The defining invisibility property: a task reading the clock
    around an SMI sees the full gap (time flowed while nothing ran)."""
    from repro.machine.topology import WYEAST_SPEC
    from repro.system import make_machine
    from repro.machine.profile import COMPUTE_BOUND

    m = make_machine(WYEAST_SPEC)
    reads = []

    def body(task):
        reads.append(task.now_ns())
        yield from task.sleep(10_000_000)  # wakes during/after the SMI
        reads.append(task.now_ns())

    m.scheduler.spawn(body, "reader", COMPUTE_BOUND)
    # SMI at 5 ms for 50 ms: the 10 ms sleep expiry defers to SMM exit.
    m.engine.schedule(5_000_000, m.node.smm.trigger, 50_000_000)
    m.engine.run()
    gap = reads[1] - reads[0]
    assert gap >= 55_000_000  # sleep + SMM residency visible in the clock


def test_bad_tsc_hz():
    with pytest.raises(ValueError):
        Clock(Engine(), tsc_hz=0)
