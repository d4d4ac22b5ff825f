"""Daemon scheduling semantics: perpetual background activities must not
keep the engine alive (the balancer/SMI-source termination contract)."""

from repro.simx import Delay, Engine


def test_daemon_events_do_not_keep_engine_alive():
    eng = Engine()
    ticks = []

    def ticker():
        while True:
            yield Delay(10)
            ticks.append(eng.now)

    eng.process(ticker(), name="daemon", daemon=True)
    eng.schedule(35, lambda: None)  # the only foreground work
    eng.run()
    assert eng.now == 35
    assert ticks == [10, 20, 30]


def test_engine_with_only_daemons_returns_immediately():
    eng = Engine()

    def ticker():
        while True:
            yield Delay(10)

    eng.process(ticker(), name="daemon", daemon=True)
    assert eng.run() == 0


def test_foreground_process_keeps_daemons_ticking():
    eng = Engine()
    ticks = []

    def daemon():
        while True:
            yield Delay(7)
            ticks.append(eng.now)

    def fg():
        yield Delay(50)
        return "done"

    eng.process(daemon(), daemon=True)
    p = eng.process(fg())
    eng.run()
    assert p.result == "done"
    assert len(ticks) == 7  # 7,14,...,49


def test_cancel_releases_foreground_count():
    eng = Engine()
    entry = eng._post(100, lambda: None, (), False)
    eng._cancel_entry(entry)
    eng._cancel_entry(entry)  # idempotent
    # nothing foreground left: run returns at t=0
    assert eng.run() == 0


def test_daemon_interplay_with_run_until():
    eng = Engine()
    ev = eng.event()

    def daemon():
        while True:
            yield Delay(10)
            if eng.now >= 40 and not ev.triggered:
                ev.succeed("from-daemon")

    eng.process(daemon(), daemon=True)
    eng.schedule(1_000, lambda: None)  # keeps foreground alive past 40
    eng.run_until(ev)
    assert ev.value == "from-daemon"
    assert eng.now == 40


def test_machine_run_terminates_with_balancer_and_smi_source():
    """The regression that motivated daemon scheduling: engine.run() on a
    machine with its periodic balancer and an SMI source must return when
    application tasks finish."""
    from repro.core.smi import SmiProfile, SmiSource
    from repro.machine.profile import WorkloadProfile
    from repro.machine.topology import WYEAST_SPEC
    from repro.system import make_machine

    m = make_machine(WYEAST_SPEC, seed=1)
    SmiSource(m.node, SmiProfile.SHORT, 100, seed=1)
    reg = WorkloadProfile(name="reg", mem_ref_fraction=0.0, base_miss_rate=0.0)

    def body(task):
        yield from task.compute(WYEAST_SPEC.base_hz * 0.3)

    m.scheduler.spawn(body, "w", reg)
    t_end = m.engine.run()  # must return, not spin forever
    assert 0.3e9 < t_end < 0.5e9
