"""Fault-injection determinism gates.

Two invariants guard the fault subsystem:

* **Zero overhead when disabled** — a plan that matches nothing, or an
  armed injector whose rules cannot fire, must leave every payload
  byte-identical to the pinned golden cells (the fault hooks may not
  perturb event ordering, seeds, or arithmetic).
* **Schedule independence** — with a plan active, ``--jobs 4`` must
  produce byte-identical results to ``--jobs 1``, including the
  failed-in-sim rows (cell seeds are position-derived and injector RNGs
  are seeded per repetition, never shared).
"""

import json
import os

import pytest

from repro.cli import _with_faults
from repro.faults import FaultPlan, FaultRule
from repro.runx import SweepRunner
from repro.runx.cells import run_cell
from repro.runx.spec import CellSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cells.json")

with open(GOLDEN, encoding="utf-8") as fp:
    _CELLS = json.load(fp)

#: Per golden cell, a rule that matches it but cannot fire: the node
#: index does not exist in that cell's topology (attach skips it).
_INERT_RULE = {"bt": 99, "ft": 99, "convolve": 1, "convolve_cu1": 1,
               "convolve_cu8": 1}


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_unmatched_plan_leaves_golden_payloads_byte_identical(name):
    cell = _CELLS[name]
    spec = CellSpec(id=name, fn=cell["fn"], params=cell["params"],
                    base_seed=cell["seed"])
    plan = FaultPlan([FaultRule(fault="node_crash", match="no-such-cell-*")])
    (rewritten,), hit = _with_faults([spec], plan)
    assert hit == 0 and rewritten is spec
    payload = run_cell(rewritten.fn, rewritten.params, rewritten.base_seed)
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(cell["payload"], sort_keys=True)


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_armed_but_inert_injector_is_byte_identical(name):
    """The stronger claim: even running through the *faulted* executor
    branch (injector attached, link hook live, timers considered) the
    payload must not drift when no fault can actually fire."""
    cell = _CELLS[name]
    params = dict(cell["params"])
    params["faults"] = [{"fault": "node_crash", "match": "*",
                         "node": _INERT_RULE[name], "at_s": 1.0}]
    payload = run_cell(cell["fn"], params, cell["seed"])
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(cell["payload"], sort_keys=True)


def _strip_volatile(record):
    rec = dict(record)
    rec.pop("duration_s", None)
    return rec


def test_jobs4_matches_jobs1_byte_for_byte_under_fault_plan():
    specs = [
        CellSpec(id="EP.A n=1 smm=0", fn="nas", base_seed=11,
                 params={"bench": "EP", "cls": "A", "nodes": 1, "rpn": 1,
                         "smm": 0, "reps": 1}),
        CellSpec(id="EP.A n=2 smm=0", fn="nas", base_seed=22,
                 params={"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1,
                         "smm": 0, "reps": 1}),
        CellSpec(id="EP.A n=2 smm=2 crash", fn="nas", base_seed=33,
                 params={"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1,
                         "smm": 2, "reps": 1}),
        CellSpec(id="EP.A n=2 smm=0 lossy", fn="nas", base_seed=44,
                 params={"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1,
                         "smm": 0, "reps": 1}),
    ]
    plan = FaultPlan([
        FaultRule(fault="node_crash", match="*crash", node=1, at_s=1.0),
        FaultRule(fault="link_delay", match="*lossy", delay_ns=3_000_000,
                  p=0.5),
    ])
    specs, hit = _with_faults(specs, plan)
    assert hit == 2

    def sweep(jobs):
        results = SweepRunner(jobs=jobs, isolation="process",
                              timeout_s=300).run(specs)
        return {cid: _strip_volatile(r.to_record())
                for cid, r in results.items()}

    serial, parallel = sweep(1), sweep(4)
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)
    assert serial["EP.A n=2 smm=2 crash"]["status"] == "failed-in-sim"
    assert serial["EP.A n=2 smm=2 crash"]["fault"]["events"]
    assert serial["EP.A n=2 smm=0 lossy"]["status"] == "ok"
    assert serial["EP.A n=1 smm=0"]["status"] == "ok"
