"""SMI sources: duty cycle regimes, swallowed ticks, driver model."""

import pytest

from repro.core.driver import BlackboxSmiDriver
from repro.core.smi import SmiDurations, SmiProfile, SmiSource
from repro.machine.profile import WorkloadProfile
from repro.machine.topology import WYEAST_SPEC
from repro.system import make_machine

REG = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0)


def run_with_source(durations, interval, work_s=2.0, seed=3):
    m = make_machine(WYEAST_SPEC, seed=seed)
    src = SmiSource(m.node, durations, interval, seed=seed)

    def body(task):
        yield from task.compute(WYEAST_SPEC.base_hz * work_s)

    t = m.scheduler.spawn(body, "w", REG)
    m.engine.run_until(t.proc.done_event)
    return m, src, t.finished_ns / 1e9


def test_profiles_match_paper_classes():
    assert SmiProfile.SHORT.dmin_ns == 1_000_000 and SmiProfile.SHORT.dmax_ns == 3_000_000
    assert SmiProfile.LONG.dmin_ns == 100_000_000 and SmiProfile.LONG.dmax_ns == 110_000_000
    assert SmiProfile.by_index(0) is None
    assert SmiProfile.by_index(2) is SmiProfile.LONG
    assert SmiProfile.label(1) == "SMM 1"


def test_durations_sampled_in_range():
    m, src, _ = run_with_source(SmiProfile.LONG, 500)
    for d in m.node.smm.stats.durations_ns:
        assert 100_000_000 <= d <= 110_000_000 + 10_000


def test_none_profile_is_inert():
    m = make_machine(WYEAST_SPEC)
    src = SmiSource(m.node, None, 1000)
    assert src.proc is None


def test_free_running_regime_slowdown():
    """interval ≫ duration: slowdown ≈ 1/(1 − d/T)."""
    _, src, t = run_with_source(SmiProfile.LONG, 1000)
    assert 1.08 < t / 2.0 < 1.15
    assert src.swallowed_ticks == 0


def test_swallowed_tick_regime_slowdown():
    """interval < duration: useful fraction = T/(T+d) ⇒ ~3.1× at 50 ms."""
    _, src, t = run_with_source(SmiProfile.LONG, 50)
    assert 2.7 < t / 2.0 < 3.6
    assert src.swallowed_ticks > 10


def test_short_smis_invisible():
    _, _, t = run_with_source(SmiProfile.SHORT, 1000)
    assert abs(t - 2.0) / 2.0 < 0.01


def test_stop_silences_source():
    m = make_machine(WYEAST_SPEC, seed=1)
    src = SmiSource(m.node, SmiProfile.SHORT, 100, seed=1)

    def body(task):
        yield from task.compute(WYEAST_SPEC.base_hz * 0.5)
        src.stop()
        before = m.node.smm.stats.entries
        yield from task.compute(WYEAST_SPEC.base_hz * 0.5)
        return before

    t = m.scheduler.spawn(body, "w", REG)
    m.engine.run_until(t.proc.done_event)
    assert m.node.smm.stats.entries == t.proc.result


def test_seed_controls_phase_and_jitter():
    _, a, ta = run_with_source(SmiProfile.LONG, 700, seed=5)
    _, b, tb = run_with_source(SmiProfile.LONG, 700, seed=5)
    _, c, tc = run_with_source(SmiProfile.LONG, 700, seed=6)
    assert ta == tb
    assert ta != tc


def test_bad_interval_rejected():
    m = make_machine(WYEAST_SPEC)
    with pytest.raises(ValueError):
        SmiSource(m.node, SmiProfile.SHORT, 0)


def test_bad_durations_rejected():
    with pytest.raises(ValueError):
        SmiDurations("x", 0, 10)
    with pytest.raises(ValueError):
        SmiDurations("x", 10, 5)


def test_driver_lifecycle_and_stats():
    m = make_machine(WYEAST_SPEC, seed=1)
    drv = BlackboxSmiDriver(m.node)
    drv.configure(smm_class=2, interval_jiffies=300, seed=2)
    drv.start()
    with pytest.raises(RuntimeError):  # already loaded
        drv.start()
    with pytest.raises(RuntimeError):
        drv.configure(smm_class=1)

    def body(task):
        yield from task.compute(WYEAST_SPEC.base_hz * 1.0)

    t = m.scheduler.spawn(body, "w", REG)
    m.engine.run_until(t.proc.done_event)
    drv.stop()
    stats = drv.read_stats()
    assert stats.smi_count >= 2
    assert 100e6 < stats.mean_latency_ns < 112e6
    assert stats.min_latency_ns <= stats.mean_latency_ns <= stats.max_latency_ns


def test_driver_smm0_is_silent():
    m = make_machine(WYEAST_SPEC)
    drv = BlackboxSmiDriver(m.node)
    drv.configure(smm_class=0)
    drv.start()
    assert drv.read_stats().smi_count == 0
    drv.stop()
