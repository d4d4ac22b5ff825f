"""Experiment methodology machinery."""

import pytest

from repro.core.experiment import (
    ExperimentCase,
    Measurement,
    run_matrix,
    run_repeated,
)


def test_measurement_stats():
    m = Measurement([1.0, 2.0, 3.0])
    assert m.mean == 2.0
    assert m.min == 1.0 and m.max == 3.0
    assert m.std == pytest.approx(1.0)


def test_run_repeated_distinct_seeds():
    seeds = []
    m = run_repeated(lambda s: (seeds.append(s), float(s))[1], reps=4, base_seed=10)
    assert len(set(seeds)) == 4
    assert m.mean == sum(seeds) / 4


def test_run_repeated_infeasible_short_circuits():
    calls = []
    m = run_repeated(lambda s: (calls.append(s), None)[1], reps=5)
    assert m is None
    assert len(calls) == 1


def test_run_matrix_full_protocol():
    cases = [ExperimentCase("a"), ExperimentCase("b", {"x": 1})]
    log = []

    def runner(case, smm, seed):
        log.append((case.name, smm))
        if case.name == "b" and smm == 2:
            return None
        return 10.0 + smm + (0.1 if case.name == "b" else 0.0)

    results = run_matrix(cases, runner, smm_classes=(0, 1, 2), reps=2)
    assert len(results) == 2
    r_a = results[0]
    assert r_a.base() == pytest.approx(10.0)
    assert r_a.delta(2) == pytest.approx(2.0)
    assert r_a.pct(1) == pytest.approx(10.0)
    r_b = results[1]
    assert r_b.cells[2] is None
    assert r_b.delta(2) is None and r_b.pct(2) is None
    # every (case, smm) measured (reps collapsed for infeasible cells)
    assert log.count(("a", 0)) == 2
    assert log.count(("b", 2)) == 1
