"""The zero-SMI baseline an attributed row shares.

Every SMI class of one configuration is differenced against the
``attr_base`` projection of that row's ``smm == 0`` cell, simulated once
at the SMM-0 column's seed.  This is sound because a zero-SMI run is
bit-identical across seeds and SMI intervals
(``tests/obs/test_attr.py::test_zero_smi_baseline_is_seed_and_interval_invariant``);
these tests check the consequence end to end: a shared (and a stored,
re-joined) baseline gives the very report :func:`attribute_cell` gives
with its own baseline at the noisy seed.
"""

import json

from repro.obs import MetricsRegistry
from repro.obs.attr import attribute_cell
from repro.runx import CellResult, CellSpec, join_attribution
from repro.runx.cells import run_cell

EP = {"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1, "reps": 1,
      "attr": True}
ROW = "EP.A n=2 rpn=1"


def _spec(smm, seed):
    return CellSpec(id=f"{ROW} smm={smm}", fn="nas", base_seed=seed,
                    params={**EP, "smm": smm})


def _run(specs):
    return {s.id: CellResult(id=s.id, status="ok",
                             value=run_cell(s.fn, s.params, s.base_seed))
            for s in specs}


def test_memoized_baseline_reproduces_fresh_report_exactly():
    """The journal and the serve cache keep the unjoined payloads; a
    re-join from their JSON form (resume, cache hit) must emit the same
    report, byte for byte, as the first join and as a fresh
    attribute_cell — without simulating the baseline again."""
    specs = [_spec(0, 1), _spec(2, 1)]
    results = _run(specs)
    first, unpaired = join_attribution(specs, results)
    assert unpaired == []
    stored = {cid: CellResult(id=cid, status="ok",
                              value=json.loads(json.dumps(res.value)))
              for cid, res in results.items()}
    again, _ = join_attribution(specs, stored)
    noisy = specs[1].id
    assert json.dumps(again[noisy].value) == json.dumps(first[noisy].value)
    ref = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=2, seed=1)
    assert json.dumps(first[noisy].value["attribution"]) == \
        json.dumps(ref.report)


def test_canonical_baseline_seed_sharing_is_lossless():
    """The join differences a noisy cell against its row's smm=0 cell at
    the SMM-0 column seed; the report equals attribute_cell's, which
    simulates its own baseline at the noisy seed."""
    specs = [_spec(smm, 5 + 31 * smm) for smm in (0, 1, 2)]
    results = _run(specs)
    assert "attr_base" in results[specs[0].id].value
    reg = MetricsRegistry()
    joined, unpaired = join_attribution(specs, results, reg)
    assert unpaired == []
    assert reg.counter("attr.cells").value == 2
    assert joined[specs[0].id].value.keys() == {"values"}
    assert "attr_noisy" in results[specs[1].id].value  # inputs untouched
    for spec in specs[1:]:
        value = joined[spec.id].value
        assert list(value) == ["values", "attribution"]
        ref = attribute_cell("EP", cls="A", nodes=2, rpn=1,
                             smm=spec.params["smm"], seed=spec.base_seed)
        assert json.dumps(value["attribution"]) == json.dumps(ref.report)
