"""Cache model × CPU model end-to-end: contention reaches wall time."""

from dataclasses import replace

import pytest

from repro.machine.profile import WorkloadProfile
from repro.machine.topology import WYEAST_SPEC
from repro.system import make_machine

# Two tasks that each fit the 8 MB LLC alone but not together, with full
# cache sensitivity and HTT yield 2 (to isolate the cache effect from the
# SMT coupling when co-resident on siblings).
HEAVY = WorkloadProfile(
    name="llc-heavy", htt_yield=2.0, working_set_bytes=6 << 20,
    base_miss_rate=0.02, mem_ref_fraction=0.3, cache_sensitivity=1.0,
)
LIGHT = replace(HEAVY, working_set_bytes=64 << 10)


def run_pair(profile_a, profile_b, cpus=(0, 1)):
    m = make_machine(WYEAST_SPEC)
    work = profile_a.solo_rate(WYEAST_SPEC.base_hz) * 0.1

    def body(task):
        yield from task.compute(work)
        return task.finished_ns

    a = m.scheduler.spawn(body, "a", profile_a, affinity={cpus[0]})
    b = m.scheduler.spawn(body, "b", profile_b, affinity={cpus[1]})
    m.engine.run()
    return a.finished_ns / 1e9, b.finished_ns / 1e9


def test_llc_contention_slows_both():
    """Two LLC-filling tasks on different cores slow each other through
    the shared L3 — §II.B's 'two cache-friendly threads can compete'."""
    t_heavy, _ = run_pair(HEAVY, HEAVY)
    t_alone = 0.1  # solo-calibrated
    assert t_heavy > t_alone * 1.2


def test_light_coresident_is_harmless():
    t_heavy, t_light = run_pair(HEAVY, LIGHT)
    assert t_heavy == pytest.approx(0.1, rel=0.05)


def test_contention_releases_when_partner_finishes():
    """A short LLC-heavy partner slows the victim only while present."""
    m = make_machine(WYEAST_SPEC)
    work_long = HEAVY.solo_rate(WYEAST_SPEC.base_hz) * 0.2
    work_short = HEAVY.solo_rate(WYEAST_SPEC.base_hz) * 0.02

    def body(w):
        def inner(task):
            yield from task.compute(w)
            return task.finished_ns

        return inner

    long_t = m.scheduler.spawn(body(work_long), "long", HEAVY, affinity={0})
    short_t = m.scheduler.spawn(body(work_short), "short", HEAVY, affinity={1})
    m.engine.run()
    t_long = long_t.finished_ns / 1e9
    # slowed only during the partner's window: well under full-contention
    both_full, _ = run_pair(HEAVY, HEAVY)
    assert 0.2 < t_long < 0.2 * (both_full / 0.1)


def test_sensitivity_zero_ignores_contention():
    numb = replace(HEAVY, cache_sensitivity=0.0)
    t, _ = run_pair(numb, numb)
    assert t == pytest.approx(0.1, rel=0.02)
