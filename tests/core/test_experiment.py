"""Experiment methodology machinery."""

from repro.core.experiment import rep_seed, run_repeated


def test_run_repeated_distinct_seeds():
    seeds = []
    values = run_repeated(lambda s: (seeds.append(s), float(s))[1], reps=4,
                          base_seed=10)
    assert len(set(seeds)) == 4
    assert seeds == [rep_seed(10, r) for r in range(4)]
    assert values == [float(s) for s in seeds]


def test_run_repeated_infeasible_short_circuits():
    calls = []
    values = run_repeated(lambda s: (calls.append(s), None)[1], reps=5)
    assert values is None
    assert len(calls) == 1
