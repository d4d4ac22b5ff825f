"""Experiment methodology: positional seeds and the repetition loop."""

from repro.core.experiment import rep_seed
from repro.runx.cells import run_cell


def test_rep_seeds_are_distinct_and_positional():
    seeds = [rep_seed(10, r) for r in range(4)]
    assert len(set(seeds)) == 4
    assert seeds[0] == 10
    assert seeds == [rep_seed(10, r) for r in range(4)]


def test_infeasible_nas_cell_short_circuits(monkeypatch):
    """Infeasibility is configuration-determined, not seed-determined:
    the first repetition that reports it ends the cell."""
    import repro.apps.nas.study as study

    calls = []
    monkeypatch.setattr(study, "run_nas_config",
                        lambda *a, seed, **kw: calls.append(seed))
    params = {"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1, "smm": 2,
              "reps": 5}
    assert run_cell("nas", params, 1) == {"values": None}
    assert calls == [1]
