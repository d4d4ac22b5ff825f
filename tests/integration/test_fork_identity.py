"""Fork-vs-replay byte identity (DESIGN.md §11).

The warmup-prefix fork path (:mod:`repro.runx.forkshare`) is only
admissible because a forked run is *byte-identical* to a cold replay —
the child inherits the exact heap, generator frames, and RNG streams at
the fork point, and retargeting moves only the one not-yet-fired tick.
These tests pin that claim three ways:

* a seeded fuzzer over topologies, SMM classes, seeds, and interval
  pairs, comparing forked values to cold :func:`run_nas_config` replays
  float-for-float;

* the golden BT/FT cells run through the forked path (interval made
  explicit, which is what arms prefix sharing) against the pinned
  payload bytes;

* a manifest-level check — the canonical JSON of a forked cell payload
  equals the ``REPRO_SNAPSHOT=off`` payload of the same spec.
"""

import json
import os
import random

import pytest

from repro.apps.nas.params import NasClass
from repro.apps.nas.study import NasConfig, run_nas_config
from repro.core.experiment import rep_seed
from repro.runx.cells import run_cell
from repro.runx.forkshare import (
    fork_supported,
    forked_nas_values,
    global_store,
    reset_global_store,
)

pytestmark = pytest.mark.skipif(not fork_supported(),
                                reason="fork identity needs os.fork")


@pytest.fixture(autouse=True)
def _fork_path_on(monkeypatch):
    # Identity tests must exercise the fork path even on the CI leg
    # that exports REPRO_SNAPSHOT=off for the rest of the suite.
    monkeypatch.setenv("REPRO_SNAPSHOT", "auto")

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cells.json")

with open(GOLDEN, encoding="utf-8") as fp:
    _CELLS = json.load(fp)


# -- fuzzer -------------------------------------------------------------------

def _fuzz_cases(n):
    rng = random.Random(0xF0F0)
    cases = []
    for _ in range(n):
        base = rng.randrange(400, 1200)
        cases.append({
            "rpn": rng.choice([1, 2]),
            "smm": rng.choice([1, 2]),
            "seed": rng.randrange(1, 10_000),
            "intervals": [base, base + rng.randrange(0, 800)],
        })
    return cases


@pytest.mark.parametrize("case", _fuzz_cases(4),
                         ids=lambda c: f"smm{c['smm']}-s{c['seed']}")
def test_fuzzed_fork_points_match_cold_replay(case):
    cfg = NasConfig("EP", NasClass.A, nodes=2, ranks_per_node=case["rpn"])
    params = {"bench": "EP", "cls": "A", "nodes": 2, "rpn": case["rpn"],
              "smm": case["smm"], "reps": 2}
    for iv in case["intervals"]:
        fv = forked_nas_values(dict(params, interval=iv), case["seed"])
        assert fv is not None, f"interval {iv} unexpectedly cold"
        cold = [
            run_nas_config(cfg, smm=case["smm"],
                           seed=rep_seed(case["seed"], r),
                           interval_jiffies=iv)
            for r in range(2)
        ]
        assert fv == cold, f"fork drift at interval {iv}"
    # The second interval must have reused the first's warm prefixes.
    assert global_store().stats()["hits"] >= 2


# -- golden cells through the forked path -------------------------------------

@pytest.mark.parametrize("name", ["bt", "ft"])
def test_golden_cell_forked_is_byte_identical(name):
    """The pinned payloads, reproduced through a fork: making the
    default interval explicit arms prefix sharing without changing the
    simulation, so the bytes must not move."""
    reset_global_store()
    cell = _CELLS[name]
    params = dict(cell["params"], interval=1000)  # the cold-path default
    payload = run_cell(cell["fn"], params, cell["seed"])
    stats = global_store().stats()
    assert stats["forks"] + stats["hits"] > 0, "fork path never engaged"
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(cell["payload"], sort_keys=True)


# -- manifest-level equality --------------------------------------------------

def test_forked_payload_equals_snapshot_off_payload(monkeypatch):
    params = {"bench": "FT", "cls": "A", "nodes": 2, "rpn": 2,
              "smm": 2, "reps": 2, "interval": 1000}
    monkeypatch.setenv("REPRO_SNAPSHOT", "off")
    cold = run_cell("nas", dict(params), 99)
    monkeypatch.delenv("REPRO_SNAPSHOT")
    reset_global_store()
    forked = run_cell("nas", dict(params), 99)
    assert global_store().stats()["forks"] > 0
    assert json.dumps(forked, sort_keys=True) == \
        json.dumps(cold, sort_keys=True)
