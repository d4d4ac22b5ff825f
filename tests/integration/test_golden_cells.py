"""Determinism-under-optimization gate: golden cell payloads.

``golden/cells.json`` holds the exact ``run_cell`` payloads of one BT
cell, one FT cell, and three CacheUnfriendly Convolve lines, captured
with fixed seeds before the optimizations they guard: 4 CPUs (before
the engine hot-path overhaul), and 1 CPU (24 threads stacked on one
CPU) and 8 CPUs (busy HTT siblings) before the rate-pass fast paths.  Every optimization to the engine,
rate model, scheduler, or MPI layer must keep these byte-identical: the
fluid model is exact, the event order is pinned by (time, seq), and the
seeds are position-derived, so any payload drift means an optimization
changed simulation semantics, not just speed.

Regenerate (only when an *intentional* model change lands, never for a
perf change)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.obs.metrics import MetricsRegistry
from repro.runx.cells import run_cell
    path = "tests/integration/golden/cells.json"
    g = json.load(open(path))
    for c in g.values():
        c["payload"] = run_cell(c["fn"], c["params"], c["seed"])
    json.dump(g, open(path, "w"), indent=2, sort_keys=True)
    EOF
"""

import json
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runx.cells import run_cell

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cells.json")

with open(GOLDEN, encoding="utf-8") as fp:
    _CELLS = json.load(fp)

#: ``engine.events.scheduled`` of each golden cell.  A perf change must
#: keep these too: the same payload from a different event stream means
#: the change moved a timer push or a sequence number.
_EVENTS = {"bt": 46_927, "convolve": 59_278, "convolve_cu1": 46_065,
           "convolve_cu8": 98_808, "ft": 15_719}


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_golden_payload_is_byte_identical(name):
    cell = _CELLS[name]
    payload = run_cell(cell["fn"], cell["params"], cell["seed"])
    # Compare via canonical JSON so a diff shows *where* the payloads
    # diverge, and so the comparison matches what lands in manifests.
    got = json.dumps(payload, sort_keys=True)
    want = json.dumps(cell["payload"], sort_keys=True)
    assert got == want, f"golden cell {name!r} payload drifted"


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_golden_cell_event_count_is_pinned(name):
    cell = _CELLS[name]
    reg = MetricsRegistry()
    run_cell(cell["fn"], cell["params"], cell["seed"], metrics=reg)
    assert reg.get("engine.events.scheduled").value == _EVENTS[name]
