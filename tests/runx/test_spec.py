"""Cell specs/results: serialization, seed derivation, registry."""

import json

import pytest

from repro.core.experiment import rep_seed, smm_cell_seed
from repro.runx import SweepRunner
from repro.runx.spec import (
    FAILED,
    OK,
    CellResult,
    CellSpec,
)


def test_spec_round_trips_through_json():
    spec = CellSpec(id="EP.A n=2 rpn=1 smm=1", fn="nas",
                    params={"bench": "EP", "smm": 1, "reps": 3}, base_seed=32)
    rec = json.loads(json.dumps(spec.to_record()))
    assert CellSpec.from_record(rec) == spec


def test_result_round_trips_through_json():
    res = CellResult(id="x", status=OK, value={"values": [1.5]}, attempts=2,
                     duration_s=0.25, seed=7,
                     attempt_errors=["attempt 0: boom"])
    rec = json.loads(json.dumps(res.to_record()))
    assert rec["kind"] == "cell"
    back = CellResult.from_record(rec)
    assert back == res
    assert back.ok


def test_failed_result_defaults():
    res = CellResult.from_record({"id": "y"})
    assert res.status == FAILED and not res.ok and res.value is None


def test_every_attempt_runs_on_the_base_seed():
    # Every attempt, retries included, runs on the spec's base_seed.
    spec = CellSpec(id="f", fn="synthetic", params={"raise": "boom"},
                    base_seed=42)
    res = SweepRunner(isolation="inline", retries=3,
                      backoff_s=0.0).run([spec])["f"]
    assert res.attempts == 4 and res.seed == 42
    assert [e.split(":")[0] for e in res.attempt_errors] == [
        f"attempt {a} (seed 42)" for a in range(4)]


def test_position_derived_seed_helpers_match_legacy_formulas():
    # These strides are load-bearing: they must equal the formulas every
    # earlier release used, or sweeps would stop being bit-identical to
    # historical runs and the committed goldens.
    assert rep_seed(5, 2) == 5 + 7919 * 2
    assert smm_cell_seed(1, 2) == 1 + 31 * 2
    assert smm_cell_seed(1, 1, htt=True) == 1 + 31 + 977


def test_registry_resolves_known_and_dotted_names():
    from repro.runx.cells import resolve, synthetic_cell

    assert resolve("synthetic") is synthetic_cell
    assert resolve("repro.runx.cells:synthetic_cell") is synthetic_cell
    with pytest.raises(ValueError, match="unknown cell executor"):
        resolve("no_such_cell")


def test_synthetic_cell_is_seed_deterministic():
    from repro.runx.cells import run_cell

    a = run_cell("synthetic", {"value": 2.0, "reps": 3}, seed=9)
    b = run_cell("synthetic", {"value": 2.0, "reps": 3}, seed=9)
    c = run_cell("synthetic", {"value": 2.0, "reps": 3}, seed=10)
    assert a == b
    assert a != c
    assert len(a["values"]) == 3
