"""Rate executor: the fluid work model's invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simx import Engine
from repro.simx.rate import _EPS_WORK, _ETA_CAP, RateExecutor, WorkItem
from repro.simx.errors import SimulationError


def make(engine=None):
    eng = engine or Engine()
    completed = []
    ex = RateExecutor(eng, completed.append)
    return eng, ex, completed


class _Owner:
    """A settle owner, as a node is to its CPUs' executors."""

    unsettled = False


def defer_reschedule(ex):
    """Owe a settle pass, as ``Node.recompute`` does for its executors:
    reschedules are skipped until the pass runs."""
    ex.owner = _Owner()
    ex.owner.unsettled = True


def flush_reschedule(ex):
    """Run the owed pass, as ``Node._settle`` does: one reschedule."""
    ex.owner.unsettled = False
    ex._reschedule()


def test_single_item_completes_at_demand_over_rate():
    eng, ex, done = make()
    item = WorkItem(eng, demand=1000.0)
    ex.add(item, rate=0.0)
    ex.set_rates({item: 2.0})  # 2 units/ns -> 500 ns
    eng.run()
    assert done == [item]
    assert item.finished_at == 500
    assert item.remaining == 0.0


def test_zero_demand_completes_immediately():
    eng, ex, done = make()
    item = WorkItem(eng, demand=0.0)
    ex.add(item, rate=1.0)
    ex.set_rates({item: 1.0})
    eng.run()
    assert done == [item]


def test_rate_change_midway_shifts_completion():
    eng, ex, done = make()
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})  # would finish at t=1000
    # At t=500 halve the rate: 500 remaining at 0.5 -> finish at 1500.
    eng.schedule(500, lambda: ex.set_rates({item: 0.5}))
    eng.run()
    assert item.finished_at == 1500


def test_zero_rate_window_freezes_progress():
    """A freeze window delays completion by exactly its length."""
    eng, ex, done = make()
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})
    eng.schedule(200, lambda: ex.set_rates({item: 0.0}))
    eng.schedule(900, lambda: ex.set_rates({item: 1.0}))
    eng.run()
    assert item.finished_at == 1000 + 700


def test_remove_mid_flight_keeps_partial_progress():
    eng, ex, done = make()
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})
    eng.schedule(400, lambda: ex.remove(item))
    eng.run()
    assert done == []
    assert item.remaining == pytest.approx(600.0)
    assert item.demand - item.remaining == pytest.approx(400.0)


def test_completion_order_among_simultaneous_finishers_is_insertion_order():
    eng, ex, done = make()
    a = WorkItem(eng, demand=100.0)
    b = WorkItem(eng, demand=100.0)
    ex.add(a)
    ex.add(b)
    ex.set_rates({a: 1.0, b: 1.0})
    eng.run()
    assert done == [a, b]


def test_double_add_rejected():
    eng, ex, _ = make()
    item = WorkItem(eng, demand=10.0)
    ex.add(item)
    with pytest.raises(SimulationError):
        ex.add(item)


def test_set_rate_for_unknown_item_rejected():
    eng, ex, _ = make()
    item = WorkItem(eng, demand=10.0)
    with pytest.raises(SimulationError):
        ex.set_rates({item: 1.0})


def test_negative_inputs_rejected():
    eng, ex, _ = make()
    with pytest.raises(ValueError):
        WorkItem(eng, demand=-5.0)
    item = WorkItem(eng, demand=5.0)
    ex.add(item)
    with pytest.raises(ValueError):
        ex.set_rates({item: -1.0})


def test_done_event_fires():
    eng, ex, _ = make()
    item = WorkItem(eng, demand=100.0)
    seen = []

    def body():
        v = yield item.done
        seen.append((v, eng.now))

    eng.process(body())
    ex.add(item)
    ex.set_rates({item: 1.0})
    eng.run()
    assert seen == [(item, 100)]


def test_pre_sync_windows_cover_elapsed_time():
    """pre_sync(dt) calls tile the active timeline exactly."""
    eng, ex, _ = make()
    windows = []
    ex.pre_sync = windows.append
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})
    eng.schedule(300, lambda: ex.set_rates({item: 0.5}))
    eng.run()
    assert sum(windows) == item.finished_at


@settings(max_examples=40, deadline=None)
@given(
    demands=st.lists(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=1, max_size=8
    ),
    rate=st.floats(min_value=0.01, max_value=100.0),
)
def test_work_conservation(demands, rate):
    """Total work served equals total demand once everything completes."""
    eng, ex, done = make()
    items = [WorkItem(eng, d) for d in demands]
    for it in items:
        ex.add(it)
    ex.set_rates({it: rate for it in items})
    eng.run()
    assert len(done) == len(items)
    assert ex.total_work_served == pytest.approx(sum(demands), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    demand=st.floats(min_value=10.0, max_value=1e6),
    changes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10_000),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        max_size=6,
    ),
)
def test_remaining_never_increases(demand, changes):
    """Monotonicity under arbitrary piecewise rate schedules."""
    eng, ex, _ = make()
    item = WorkItem(eng, demand)
    ex.add(item)
    ex.set_rates({item: 1.0})
    observations = []
    t = 0
    for dt, r in changes:
        t += dt

        def change(r=r):
            ex.sync()  # settle any completion due exactly now
            observations.append(item.remaining)
            if item in ex.items:
                ex.set_rates({item: r})

        eng.schedule_at(t, change)

    # ensure completion eventually
    def finish():
        ex.sync()
        if item in ex.items:
            ex.set_rates({item: 5.0})

    eng.schedule_at(t + 1, finish)
    eng.run()
    assert all(b <= a + 1e-9 for a, b in zip(observations, observations[1:]))
    assert item.remaining == 0.0


def test_float_residue_demand_completes_at_exact_nanosecond():
    """Demand whose rate*eta product carries float residue still lands on
    the exact nanosecond (no +-1 drift from the _EPS_WORK slack)."""
    eng, ex, done = make()
    # 0.3 * 100 = 30.000000000000004 in binary float: without the
    # epsilon, remaining would be -4e-15 at t=100 and the completion
    # timer would re-fire; with it, the item completes exactly at 100.
    item = WorkItem(eng, demand=30.0)
    ex.add(item)
    ex.set_rates({item: 0.3})
    eng.run()
    assert done == [item]
    assert item.finished_at == 100
    assert item.remaining == 0.0


class _TimerSpy(RateExecutor):
    """Records every ``_on_timer`` firing time (the bound method is
    captured at post time, so the override sees all completion timers)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = []

    def _on_timer(self):
        self.fired.append(self.engine.now)
        super()._on_timer()


def test_remove_last_item_cancels_completion_timer():
    """Regression: removing the only in-flight item must cancel its armed
    completion timer.  A leaked timer is a *foreground* heap entry — it
    keeps the engine alive, advances the clock to the dead item's old
    ETA, and fires ``_on_timer`` for an executor with no items."""
    eng = Engine()
    done = []
    ex = _TimerSpy(eng, done.append)
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})  # ETA armed for t=1000

    def evict():
        ex.remove(item)
        assert ex._timer is None  # cancelled eagerly, not at next flush

    eng.schedule(400, evict)
    eng.run()
    assert done == []
    assert ex.fired == []  # the dead item's timer never fired
    assert eng.now == 400  # engine halted at eviction, not the stale ETA


def test_remove_inside_defer_window_cancels_stale_timer():
    """Regression: same eviction inside a deferred-reschedule window.  The
    deferred pass only runs at flush, so ``remove`` itself must tear the
    timer down — otherwise the stale ETA entry survives the window and
    fires ``_on_timer`` for the dead item."""
    eng = Engine()
    done = []
    ex = _TimerSpy(eng, done.append)
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})

    def evict_batched():
        defer_reschedule(ex)
        try:
            ex.remove(item)
            # Eager cancellation must not wait for the flush.
            assert ex._timer is None
        finally:
            flush_reschedule(ex)
        assert ex._timer is None

    eng.schedule(400, evict_batched)
    eng.run()
    assert done == []
    assert ex.fired == []
    assert eng.now == 400
    assert item.remaining == pytest.approx(600.0)


def test_remove_soonest_item_in_defer_window_retargets_timer():
    """Evicting the item that owns the armed ETA (while a survivor keeps
    running) must re-aim the timer at the survivor, and the dead item
    must never complete."""
    eng = Engine()
    done = []
    ex = RateExecutor(eng, done.append)
    fast = WorkItem(eng, demand=100.0, name="fast")
    slow = WorkItem(eng, demand=1000.0, name="slow")
    ex.add(fast)
    ex.add(slow)
    ex.set_rates({fast: 1.0, slow: 1.0})  # timer armed for fast at t=100

    def evict_fast():
        defer_reschedule(ex)
        try:
            ex.remove(fast)
        finally:
            flush_reschedule(ex)

    eng.schedule(50, evict_fast)
    eng.run()
    assert done == [slow]
    assert slow.finished_at == 1000
    assert fast.finished_at is None
    assert fast.remaining == pytest.approx(50.0)


def test_exact_completion_survives_same_instant_rate_churn():
    """A same-instant freeze/unfreeze pair (rate -> 0 -> restore at one
    timestamp, as SMM does) must not shift the completion nanosecond."""
    eng, ex, done = make()
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})

    def churn():
        ex.set_rates({item: 0.0})
        ex.set_rates({item: 1.0})

    eng.schedule(400, churn)
    eng.run()
    assert item.finished_at == 1000
    assert ex.total_work_served == pytest.approx(1000.0)


def test_deferred_reschedule_coalesces_to_one_pass():
    """Inside a defer/flush batch, mutations mark the executor dirty and
    the single owed rescheduling pass runs at flush — completion times
    are identical to the eager path."""
    eng, ex, done = make()
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})

    def batched_churn():
        defer_reschedule(ex)
        seq = eng._seq
        try:
            ex.set_rates({item: 0.0})
            ex.set_rates({item: 2.0})
            ex.set_rates({item: 1.0})
            assert eng._seq == seq  # no timer pushed before the pass
        finally:
            flush_reschedule(ex)
        assert eng._seq == seq + 1  # the one owed pass pushed one

    eng.schedule(250, batched_churn)
    eng.run()
    assert done == [item]
    assert item.finished_at == 1000


def test_flush_without_mutation_is_a_no_op():
    eng, ex, _ = make()
    item = WorkItem(eng, demand=100.0)
    ex.add(item)
    ex.set_rates({item: 1.0})
    timer = ex._timer
    defer_reschedule(ex)
    flush_reschedule(ex)  # same ETA, nothing pushed since: timer kept
    assert ex._timer is timer
    eng.run()
    assert item.finished_at == 100


# -- uniform-rate ETA fast path ----------------------------------------------

def _eta_per_item(remaining, rates):
    """The per-item soonest-ETA loop, written out as the reference."""
    soonest = None
    for rem, rate in zip(remaining, rates):
        if rate <= 0.0:
            continue
        if rem <= _EPS_WORK:
            eta = 0
        else:
            eta_f = rem / rate + 0.999999
            if eta_f >= _ETA_CAP:
                continue
            eta = max(1, int(eta_f))
        if soonest is None or eta < soonest:
            soonest = eta
    return soonest


def _soonest(remaining, rates):
    eng, ex, _ = make()
    items = [WorkItem(eng, demand=rem) for rem in remaining]
    for item in items:
        ex.add(item)
    ex.set_rates(dict(zip(items, rates)))
    return ex._soonest_eta()


_remainings = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=_EPS_WORK),  # done but not evicted
        st.floats(min_value=_EPS_WORK, max_value=1e15),
    ),
    min_size=1, max_size=24,
)
_rates = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-300, max_value=1e-280),  # vanishing: past the cap
    st.floats(min_value=1e-12, max_value=1e-9),     # straddles the cap
    st.floats(min_value=1e-6, max_value=10.0),
)


@settings(max_examples=300, deadline=None)
@given(remaining=_remainings, rate=_rates)
def test_uniform_rate_eta_equals_per_item_loop(remaining, rate):
    rates = [rate] * len(remaining)
    assert _soonest(remaining, rates) == _eta_per_item(remaining, rates)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), remaining=_remainings)
def test_mixed_rate_eta_equals_per_item_loop(data, remaining):
    rates = data.draw(st.lists(_rates, min_size=len(remaining),
                               max_size=len(remaining)))
    assert _soonest(remaining, rates) == _eta_per_item(remaining, rates)


@pytest.mark.parametrize("remaining, rate, want", [
    ([4e6, 5e6], 1e-12, 4e18),      # only the larger item is past the cap
    ([5e6, 6e6], 1e-12, None),      # every item past the cap
    ([5e6, 1e-7], 1e-300, 0),       # a finished item beats the cap
    ([0.4, 3.0], 1.0, 1),           # sub-ns ETA rounds up to 1 ns
])
def test_uniform_rate_eta_edge_cases(remaining, rate, want):
    got = _soonest(remaining, [rate] * len(remaining))
    assert got == _eta_per_item(remaining, [rate] * len(remaining))
    assert got == (want if want is None else int(want))
