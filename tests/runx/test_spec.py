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
    seed_free,
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


# -- seed-free digests -----------------------------------------------------------

_EP0 = {"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1, "smm": 0, "reps": 3}


def test_seed_free_spec_digest_ignores_the_seed():
    assert seed_free("nas", _EP0)
    digests = {CellSpec(id=f"s{s}", fn="nas", params=_EP0,
                        base_seed=s).digest() for s in (1, 2, 7)}
    assert len(digests) == 1


@pytest.mark.parametrize("change, free", [
    ({"smm": 1}, False),
    ({"faults": [{"fault": "link_delay", "match": "*", "delay_ns": 1}]},
     False),
    ({"htt": True}, True),
    ({"attr": True}, True),
])
def test_seed_free_variants_get_their_own_digests(change, free):
    base = CellSpec(id="a", fn="nas", params=_EP0, base_seed=1)
    other = CellSpec(id="a", fn="nas", params={**_EP0, **change},
                     base_seed=1)
    assert other.digest() != base.digest()
    assert seed_free("nas", other.params) is free


def test_non_seed_free_digests_keep_their_values():
    """Digests of specs that depend on their seed are exactly what they
    were before seed-free cells dropped the seed, so existing cache
    entries and journals for them stay valid."""
    smm2 = CellSpec(id="EP.A n=1 rpn=1 smm=2", fn="nas", base_seed=63,
                    params={"bench": "EP", "cls": "A", "nodes": 1, "rpn": 1,
                            "smm": 2, "reps": 1})
    line = CellSpec(id="figure1 CacheUnfriendly 1cpu left",
                    fn="convolve_line", base_seed=1,
                    params={"config": "CacheUnfriendly", "cpus": 1,
                            "intervals_ms": [50, 100, 200, 400, 600, 900,
                                             1200, 1500]})
    faulted = CellSpec(id="EP.A n=2 smm=0 lossy", fn="nas", base_seed=44,
                       params={"bench": "EP", "cls": "A", "nodes": 2,
                               "rpn": 1, "smm": 0, "reps": 1,
                               "faults": [{"fault": "link_delay",
                                           "match": "*lossy", "p": 0.5,
                                           "delay_ns": 3000000}]})
    assert smm2.digest() == "8c927fceda5a0f49"
    assert line.digest() == "d7f3c06ac315b52d"
    assert faulted.digest() == "38860455614f2898"
    assert CellSpec(id="f", fn="nas", params=faulted.params,
                    base_seed=45).digest() != faulted.digest()


def test_seed_free_cell_simulates_once_and_repeats(monkeypatch):
    import repro.apps.nas.study as study
    from repro.runx.cells import run_cell

    calls = []
    real = study.run_nas_config

    def counting(*args, **kw):
        calls.append(kw["seed"])
        return real(*args, **kw)

    monkeypatch.setattr(study, "run_nas_config", counting)
    params = {**_EP0, "nodes": 1}
    v = run_cell("nas", params, seed=5)["values"]
    assert calls == [5] and len(v) == 3 and len(set(v)) == 1
    calls.clear()
    run_cell("nas", {**params, "smm": 1}, seed=5)
    assert calls == [rep_seed(5, r) for r in range(3)]
