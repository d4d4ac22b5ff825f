"""Accounting conservation as a property: under ARBITRARY seeded SMI
schedules and task mixes, kernel time ≡ true + stolen, and true service
time is invariant to noise."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.smi import SmiDurations, SmiProfile, SmiSource
from repro.machine.profile import WorkloadProfile
from repro.machine.topology import WYEAST_SPEC
from repro.system import make_machine

REG = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0)


def run_tasks(works, durations, interval_ms, seed):
    """Spawn one task per entry of ``works`` (solo seconds each), run
    them to completion, and return the machine and its tasks."""
    m = make_machine(WYEAST_SPEC, seed=seed)
    if durations is not None:
        SmiSource(m.node, durations, interval_ms, seed=seed)
    tasks = []

    def body(w):
        def inner(task):
            yield from task.compute(WYEAST_SPEC.base_hz * w)

        return inner

    for i, w in enumerate(works):
        tasks.append(m.scheduler.spawn(body(w), f"t{i}", REG))
    done = m.engine.event("all")
    remaining = {"n": len(tasks)}

    def on_done(_):
        remaining["n"] -= 1
        if remaining["n"] == 0 and not done.triggered:
            done.succeed()

    for t in tasks:
        t.proc.done_event.add_callback(on_done)
    m.engine.run_until(done, limit_ns=int(300e9))
    return m, tasks


def run_mix(n_tasks, work_s_each, smi_ms, interval_ms, seed):
    durations = None
    if smi_ms > 0:
        durations = SmiDurations("x", smi_ms * 1_000_000, smi_ms * 1_000_000)
    return run_tasks(work_s_each[:n_tasks], durations, interval_ms, seed)


@settings(max_examples=15, deadline=None)
@given(
    n_tasks=st.integers(min_value=1, max_value=6),
    smi_ms=st.integers(min_value=0, max_value=150),
    interval_ms=st.integers(min_value=200, max_value=1500),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_conservation_under_arbitrary_noise(n_tasks, smi_ms, interval_ms, seed):
    works = [0.1, 0.2, 0.15, 0.05, 0.12, 0.18]
    m, tasks = run_mix(n_tasks, works, smi_ms, interval_ms, seed)
    for t in tasks:
        assert t.acct.kernel_ns == pytest.approx(
            t.acct.true_ns + t.acct.stolen_ns, rel=1e-9, abs=1.0
        )
    assert m.scheduler.accounting.conservation_error() < 10.0  # ns


@settings(max_examples=10, deadline=None)
@given(
    smi_ms=st.integers(min_value=1, max_value=120),
    interval_ms=st.integers(min_value=300, max_value=1200),
    seed=st.integers(min_value=0, max_value=100),
)
def test_work_invariant_and_occupancy_bounded(smi_ms, interval_ms, seed):
    """Noise stretches wall time but never changes the work completed;
    true occupancy can only grow (post-SMM misplacement may slow a task's
    CPU share, never shrink its service need) and is bounded by the
    sibling-sharing worst case (2×)."""
    _, clean = run_mix(2, [0.1, 0.2], 0, 1000, seed)
    _, noisy = run_mix(2, [0.1, 0.2], smi_ms, interval_ms, seed)
    for tc, tn in zip(clean, noisy):
        assert tn.acct.work_done == tc.acct.work_done
        assert tn.acct.true_ns >= tc.acct.true_ns * 0.999
        assert tn.acct.true_ns <= tc.acct.true_ns * 2.0
        assert tn.acct.kernel_ns >= tn.acct.true_ns


def test_stolen_bounded_by_residency_times_victims():
    m, tasks = run_mix(4, [1.0, 1.0, 1.0, 1.0], 100, 400, seed=5)
    total_stolen = sum(t.acct.stolen_ns for t in tasks)
    # at most (#busy cpus) × residency can be charged
    assert total_stolen <= 4 * m.node.smm.stats.total_ns * 1.001
    assert total_stolen > 0


# -- the paper's mis-attribution claim (§I, §V) on one node ---------------
# The kernel charges SMM time to whichever task was running, so its
# utime (kernel) over-reports the truth by exactly the stolen time.


def run_long_smi(n_tasks=2, with_smi=True, seed=4):
    """``n_tasks`` 1 s tasks under long SMIs every 300 jiffies."""
    durations = SmiProfile.LONG if with_smi else None
    m, _ = run_tasks([1.0] * n_tasks, durations, 300, seed)
    return m


def test_clean_run_has_zero_stolen():
    tot = run_long_smi(with_smi=False).scheduler.accounting.totals()
    assert tot["stolen_ns"] == 0.0
    assert tot["kernel_ns"] == pytest.approx(tot["true_ns"])


def test_kernel_time_equals_true_plus_stolen():
    acct = run_long_smi().scheduler.accounting
    tot = acct.totals()
    assert acct.conservation_error() / 1e9 < 1e-9
    assert tot["stolen_ns"] / 1e9 > 0.1
    # kernel over-reports by roughly the duty cycle (105/300 ≈ 35 %)
    inflation = tot["stolen_ns"] / tot["true_ns"]
    assert 0.2 < inflation < 0.55


def test_stolen_matches_smm_residency_overlap():
    """Stolen time ≤ total SMM residency × busy CPUs."""
    m = run_long_smi(n_tasks=2)
    stolen_s = m.scheduler.accounting.totals()["stolen_ns"] / 1e9
    smm_total_s = m.node.smm.stats.total_ns / 1e9
    assert stolen_s <= 2 * smm_total_s + 1e-6
    assert stolen_s >= 0.5 * smm_total_s


def test_per_task_inflation_reported():
    for t in run_long_smi().scheduler.accounting.snapshot():
        assert t.kernel_ns == pytest.approx(t.true_ns + t.stolen_ns)
        assert t.inflation_pct > 5.0


def test_accounting_conservation_via_scheduler():
    m = run_long_smi(n_tasks=3)
    assert m.scheduler.accounting.conservation_error() < 1.0  # ns


def test_stolen_time_charged_only_to_tasks_running_through_smm():
    """A task that runs only in quiet periods is charged nothing; one
    straddling the SMI is charged the freeze."""
    m = make_machine(WYEAST_SPEC, seed=9)

    def early(task):  # finishes before the first SMI
        yield from task.compute(WYEAST_SPEC.base_hz * 0.2)

    def late(task):
        yield from task.sleep(300_000_000)
        yield from task.compute(WYEAST_SPEC.base_hz * 0.2)

    m.scheduler.spawn(early, "early", REG, affinity={0})
    m.scheduler.spawn(late, "late", REG, affinity={1})
    m.engine.schedule(400_000_000, m.node.smm.trigger, 105_000_000)
    m.engine.run()
    by = {t.name: t for t in m.scheduler.accounting.snapshot()}
    assert by["early"].stolen_ns == 0.0
    assert by["late"].stolen_ns / 1e9 > 0.09
