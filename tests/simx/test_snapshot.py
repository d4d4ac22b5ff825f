"""Engine snapshot/restore and the layer protocol (DESIGN.md §11).

Three groups:

* Engine-level: a snapshot restores the event heap, clock, and seq
  counter exactly — replaying from a restored engine reproduces the
  original schedule — and the process census refuses a restore once any
  generator has stepped past the snapshot (generator frames cannot be
  rewound in-process; that is what the fork path is for).

* The armed rate-completion timer: restoring a
  :class:`~repro.simx.rate.RateExecutor` together with (or without) its
  engine leaves exactly one live timer, at the right time, in every
  rebinding case the stale-timer bug class produced.

* A busy executor (dozens of residents, mixed rates) restores to the
  completion schedule of an undisturbed run.
"""

import pytest

from repro.simx import Engine
from repro.simx.engine import EngineSnapshot
from repro.simx.errors import SimulationError, SnapshotError
from repro.simx.rate import RateExecutor, WorkItem
from repro.simx.snapshot import engine_state, state_digest


# -- engine snapshot/restore --------------------------------------------------

def test_timer_replay_after_restore_is_identical():
    eng = Engine()
    fired = []
    for t in (50, 10, 90, 30):
        eng.schedule(t, lambda t=t: fired.append((eng.now, t)))
    snap = eng.snapshot()
    assert isinstance(snap, EngineSnapshot)
    eng.run()
    first = list(fired)
    assert [t for _, t in first] == [10, 30, 50, 90]

    fired.clear()
    eng.restore(snap)
    assert eng.now == 0
    eng.run()
    assert fired == first


def test_restore_rewinds_clock_and_seq():
    eng = Engine()
    eng.schedule(100, lambda: None)
    snap = eng.snapshot()
    s0 = engine_state(eng)
    eng.schedule(40, lambda: None)  # consumes a seq number
    eng.run()
    assert eng.now == 100
    eng.restore(snap)
    assert engine_state(eng) == s0
    # A post being scheduled *after* restore gets the same seq number it
    # would have gotten in the original timeline — the tie-break order
    # of simultaneous events is part of the restored state.
    assert state_digest(engine_state(eng)) == state_digest(s0)


def test_cancelled_entries_restore_cancelled():
    eng = Engine()
    keep = eng._post(500, lambda: None, (), False)
    doomed = eng._post(200, lambda: None, (), False)
    snap = eng.snapshot()
    eng._cancel_entry(doomed)
    eng.run()
    eng.restore(snap)
    assert not doomed[5]  # tombstone rewound
    assert not keep[5]
    times = sorted(e[0] for e in eng._heap if not e[5])
    assert times == [200, 500]


def test_census_refuses_stepped_process():
    eng = Engine()

    def body():
        from repro.simx.engine import Delay
        yield Delay(10)
        yield Delay(10)

    eng.process(body(), name="walker")
    eng.run(until_ns=0)  # initial step: parks on the first delay
    snap = eng.snapshot()
    eng.run(until_ns=10)  # the process steps past the snapshot
    with pytest.raises(SnapshotError):
        eng.restore(snap)


def test_census_refuses_new_process():
    eng = Engine()
    snap = eng.snapshot()

    def body():
        from repro.simx.engine import Delay
        yield Delay(5)

    eng.process(body(), name="late")
    with pytest.raises(SnapshotError):
        eng.restore(snap)


# -- the armed rate-completion timer ------------------------------------------

def _mid_flight(ex_cls):
    eng = Engine()
    done = []
    ex = ex_cls(eng, done.append)
    item = WorkItem(eng, demand=1000.0)
    ex.add(item)
    ex.set_rates({item: 1.0})  # completion timer armed for t=1000
    eng.run(until_ns=300)
    return eng, ex, item, done


def test_engine_and_executor_restore_leaves_one_live_timer():
    """Case: a reschedule after the snapshot cancelled the saved timer
    and armed a new one; Engine.restore resurrects the saved entry and
    drops the new one — the executor must rebind to the resurrected
    entry, not leave a duplicate or a stale pointer armed."""
    eng, ex, item, done = _mid_flight(RateExecutor)
    snap = eng.snapshot()
    state = ex.__snapshot__()
    ex.set_rates({item: 2.0})  # cancels t=1000, arms t=650

    eng.restore(snap)
    ex.__restore__(state)
    live = [e for e in eng._heap if not e[5]]
    assert len(live) == 1 and live[0][0] == 1000
    eng.run()
    assert done == [item] and item.finished_at == 1000


def test_executor_only_restore_rearms_consumed_timer():
    """Case: the saved timer was cancelled by a later reschedule and the
    engine was *not* restored — the executor must arm a fresh timer at
    the saved completion time."""
    eng, ex, item, done = _mid_flight(RateExecutor)
    state = ex.__snapshot__()
    ex.set_rates({item: 2.0})  # cancels the t=1000 timer, arms t=650
    ex.__restore__(state)      # rewind to the 1.0-rate schedule
    live = [e for e in eng._heap if not e[5]]
    assert len(live) == 1 and live[0][0] == 1000
    eng.run()
    assert done == [item] and item.finished_at == 1000


def test_restore_refuses_membership_drift():
    eng, ex, item, done = _mid_flight(RateExecutor)
    state = ex.__snapshot__()
    ex.remove(item)
    with pytest.raises(SimulationError):
        ex.__restore__(state)


def test_restore_into_past_timer_raises():
    eng, ex, item, done = _mid_flight(RateExecutor)
    state = ex.__snapshot__()
    eng.run()  # completes at t=1000; timer consumed, now > timer_time
    with pytest.raises(SimulationError):
        ex.__restore__(state)


# -- a busy executor ----------------------------------------------------------

def _bulk_scenario():
    eng = Engine()
    done = []
    ex = RateExecutor(eng, done.append)
    n = 40
    items = [WorkItem(eng, demand=1000.0 + 7 * i) for i in range(n)]
    for it in items:
        ex.add(it)
    ex.set_rates_seq([1.0 + (i % 5) * 0.25 for i in range(n)])
    eng.run(until_ns=400)
    return eng, ex, items, done


def test_round_trip_preserves_completion_schedule():
    """Snapshot, perturb every rate, restore, run: completions must land
    exactly where an undisturbed run puts them."""
    eng_ref, _, ref_items, _ = _bulk_scenario()
    eng_ref.run()
    original = [it.finished_at for it in ref_items]

    eng, ex, items, done = _bulk_scenario()
    snap = eng.snapshot()
    state = ex.__snapshot__()
    ex.set_rates_seq([3.0] * len(items))  # perturb inside the window

    eng.restore(snap)
    ex.__restore__(state)
    eng.run()
    assert [it.finished_at for it in items] == original
    assert len(done) == len(items)
