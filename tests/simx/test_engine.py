"""Engine semantics: time, ordering, processes, waits, failures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simx import (
    AllOf,
    AnyOf,
    Delay,
    Engine,
    SimulationError,
)


class Wakeup(Exception):
    """Thrown into a process with :meth:`Process.abort`."""


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_schedule_runs_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule(30, seen.append, "c")
    eng.schedule(10, seen.append, "a")
    eng.schedule(20, seen.append, "b")
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 30


def test_same_time_events_run_in_insertion_order():
    eng = Engine()
    seen = []
    for i in range(10):
        eng.schedule(5, seen.append, i)
    eng.run()
    assert seen == list(range(10))


def test_schedule_into_past_raises():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)


def test_cancel_prevents_callback():
    eng = Engine()
    seen = []
    entry = eng._post(10, seen.append, ("x",), False)
    eng._cancel_entry(entry)
    eng.run()
    assert seen == []


def test_run_until_ns_limit():
    eng = Engine()
    seen = []
    eng.schedule(10, seen.append, 1)
    eng.schedule(100, seen.append, 2)
    eng.run(until_ns=50)
    assert seen == [1]
    assert eng.now == 50
    eng.run()
    assert seen == [1, 2]


def test_process_delay_and_return_value():
    eng = Engine()

    def body():
        yield Delay(1_000)
        yield 500  # bare int is a delay
        return 42

    p = eng.process(body(), name="t")
    eng.run()
    assert p.result == 42
    assert eng.now == 1_500
    assert not p.alive


def test_settle_passes_run_before_the_clock_moves_in_deferral_order():
    eng = Engine()
    log = []

    def mutate(tag):
        log.append((eng.now, tag))
        eng.defer_settle(lambda: log.append((eng.now, f"settle {tag}")))

    eng.schedule(5, mutate, "a")
    eng.schedule(5, mutate, "b")
    eng.schedule(5, log.append, (5, "last event"))
    eng.schedule(9, log.append, (9, "later"))
    eng.run()
    assert log == [(5, "a"), (5, "b"), (5, "last event"),
                   (5, "settle a"), (5, "settle b"), (9, "later")]


def test_settle_may_post_an_event_at_the_current_instant():
    """A pass that posts at +0 (an item already complete) has that event
    run before the clock moves, and a pass owed with the heap empty or
    in ``run_until`` still runs."""
    eng = Engine()
    log = []
    eng.schedule(3, lambda: eng.defer_settle(
        lambda: eng.schedule(0, log.append, ("zero", eng.now))))
    eng.schedule(4, log.append, ("later", 4))
    eng.run()
    assert log == [("zero", 3), ("later", 4)]

    done = eng.event()
    eng.defer_settle(lambda: eng.schedule(2, done.succeed))
    eng.run_until(done)
    assert done.triggered and eng.now == 6


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None, name="notagen")


def test_event_wait_and_value():
    eng = Engine()
    ev = eng.event("e")

    def waiter():
        v = yield ev
        return v

    def trigger():
        yield Delay(100)
        ev.succeed("hello")

    p = eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert p.result == "hello"


def test_event_failure_propagates_into_waiter():
    eng = Engine()
    ev = eng.event()

    def waiter():
        try:
            yield ev
        except ValueError as e:
            return f"caught {e}"

    p = eng.process(waiter())
    eng.schedule(10, ev.fail, ValueError("boom"))
    eng.run()
    assert p.result == "caught boom"


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        _ = eng.event().value


def test_wait_on_already_triggered_event():
    eng = Engine()
    ev = eng.event()
    ev.succeed(7)

    def body():
        v = yield ev
        return v

    p = eng.process(body())
    eng.run()
    assert p.result == 7


def test_join_process():
    eng = Engine()

    def child():
        yield Delay(100)
        return "child-done"

    def parent():
        c = eng.process(child(), name="child")
        v = yield c
        return v

    p = eng.process(parent(), name="parent")
    eng.run()
    assert p.result == "child-done"


def test_child_exception_reraised_in_joiner():
    eng = Engine()

    def child():
        yield Delay(10)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield eng.process(child(), name="c")
        except RuntimeError as e:
            return str(e)

    p = eng.process(parent())
    eng.run()
    assert p.result == "child failed"


def test_result_of_failed_process_raises():
    eng = Engine()

    def child():
        yield Delay(10)
        raise RuntimeError("child failed")

    p = eng.process(child(), name="c")
    p.done_event.add_callback(lambda _ev: None)  # joined: not an orphan
    eng.run()
    assert not p.alive and not p.done_event.ok
    with pytest.raises(RuntimeError, match="child failed"):
        p.result


def test_result_of_unfinished_process_raises():
    eng = Engine()

    def body():
        yield Delay(10)

    p = eng.process(body())
    with pytest.raises(SimulationError, match="not yet triggered"):
        p.result


def test_orphan_failure_surfaces_in_run():
    eng = Engine()

    def bad():
        yield Delay(10)
        raise RuntimeError("unjoined")

    eng.process(bad(), name="bad")
    with pytest.raises(SimulationError, match="bad"):
        eng.run()


def test_allof_collects_values_in_order():
    eng = Engine()
    evs = [eng.event() for _ in range(3)]

    def body():
        vals = yield AllOf(evs)
        return vals

    p = eng.process(body())
    # trigger out of order
    eng.schedule(30, evs[0].succeed, "a")
    eng.schedule(10, evs[2].succeed, "c")
    eng.schedule(20, evs[1].succeed, "b")
    eng.run()
    assert p.result == ["a", "b", "c"]
    assert eng.now == 30


def test_anyof_returns_first():
    eng = Engine()
    evs = [eng.event() for _ in range(3)]

    def body():
        i, v = yield AnyOf(evs)
        return (i, v)

    p = eng.process(body())
    eng.schedule(10, evs[1].succeed, "fast")
    eng.schedule(20, evs[0].succeed, "slow")
    eng.run()
    assert p.result == (1, "fast")


def test_empty_allof_resumes_immediately():
    eng = Engine()

    def body():
        vals = yield AllOf([])
        return vals

    p = eng.process(body())
    eng.run()
    assert p.result == []


def test_empty_anyof_rejected():
    with pytest.raises(ValueError):
        AnyOf([])


def test_interrupt_breaks_delay():
    eng = Engine()

    def body():
        try:
            yield Delay(1_000_000)
        except Wakeup as w:
            return ("interrupted", w.args[0], eng.now)

    p = eng.process(body())
    eng.schedule(100, p.abort, Wakeup("wakeup"))
    eng.run()
    assert p.result == ("interrupted", "wakeup", 100)


def test_stale_event_callback_after_interrupt_is_ignored():
    eng = Engine()
    ev = eng.event()

    def body():
        try:
            yield ev
        except Wakeup:
            yield Delay(50)
            return "recovered"

    p = eng.process(body())
    eng.schedule(10, p.abort, Wakeup())
    eng.schedule(20, ev.succeed, "late")  # must not resume the process twice
    eng.run()
    assert p.result == "recovered"
    assert eng.now == 60


def test_kill_terminates():
    eng = Engine()
    steps = []

    def body():
        steps.append("start")
        yield Delay(1_000)
        steps.append("never")

    p = eng.process(body())
    eng.schedule(100, p.kill)
    eng.run()
    assert steps == ["start"]
    assert not p.alive


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_yield_garbage_fails_the_process():
    eng = Engine()

    def body():
        yield "nonsense"

    def parent():
        try:
            yield eng.process(body(), name="b")
        except TypeError as e:
            return "typed: " + str(e)[:20]

    p = eng.process(parent())
    eng.run()
    assert p.result.startswith("typed:")


def test_timeout_event():
    eng = Engine()

    def body():
        v = yield eng.timeout(250, "late")
        return (v, eng.now)

    p = eng.process(body())
    eng.run()
    assert p.result == ("late", 250)


def test_run_until_event():
    eng = Engine()
    ev = eng.event()
    ticks = []

    def ticker():
        while True:
            yield Delay(10)
            ticks.append(eng.now)

    eng.process(ticker(), name="ticker")
    eng.schedule(55, ev.succeed)
    eng.run_until(ev)
    assert ev.triggered
    assert all(t <= 55 for t in ticks)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40))
def test_determinism_same_schedule_same_trace(delays):
    """Two engines fed the same schedule produce identical traces."""

    def trace_for():
        eng = Engine()
        seen = []
        for i, d in enumerate(delays):
            eng.schedule(d, lambda i=i: seen.append((eng.now, i)))
        eng.run()
        return seen

    assert trace_for() == trace_for()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=20))
def test_process_delays_accumulate_exactly(delays):
    eng = Engine()

    def body():
        for d in delays:
            yield Delay(d)
        return eng.now

    p = eng.process(body())
    eng.run()
    assert p.result == sum(delays)
