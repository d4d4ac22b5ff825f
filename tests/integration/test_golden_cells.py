"""Determinism-under-optimization gate: golden cell payloads.

``golden/cells.json`` holds the exact ``run_cell`` payloads of one BT
cell, one FT cell, and three CacheUnfriendly Convolve lines, captured
with fixed seeds before the optimizations they guard: 4 CPUs (before
the engine hot-path overhaul), and 1 CPU (24 threads stacked on one
CPU) and 8 CPUs (busy HTT siblings) before the rate-pass fast paths.
Every optimization to the engine, rate model, scheduler, or MPI layer
must keep these byte-identical: the fluid model is exact, the event
order is pinned by (time, seq), and the seeds are position-derived, so
any payload drift means an optimization changed simulation semantics,
not just speed.

Each node's rates settle once per simulated instant, after the
instant's last event and before the clock moves.  A zero-length window
integrates nothing, so that pass gives the numbers of a pass after every
mutation: the payloads stayed byte-identical when the settle replaced
the per-mutation passes, while the event counts below went down (the
timers a superseded pass pushed are gone) and same-nanosecond ties now
follow the settle order.

Regenerate (only when an *intentional* model change lands, never for a
perf change)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.runx.cells import run_cell
    path = "tests/integration/golden/cells.json"
    g = json.load(open(path))
    for c in g.values():
        c["payload"] = run_cell(c["fn"], c["params"], c["seed"])
    json.dump(g, open(path, "w"), indent=2, sort_keys=True)
    EOF
"""

import collections
import json
import os

import pytest

from repro.machine.node import Node
from repro.obs.metrics import MetricsRegistry
from repro.runx.cells import run_cell
from repro.simx.rate import RateExecutor

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cells.json")

with open(GOLDEN, encoding="utf-8") as fp:
    _CELLS = json.load(fp)

#: ``engine.events.scheduled`` of each golden cell.  A perf change must
#: keep these too: the same payload from a different event stream means
#: the change moved a timer push or a sequence number.
_EVENTS = {"bt": 46_924, "convolve": 30_856, "convolve_cu1": 31_167,
           "convolve_cu8": 51_314, "ft": 11_919}

#: The golden Convolve lines (``convolve_line`` cells).
_CONVOLVE = sorted(n for n, c in _CELLS.items() if c["fn"] == "convolve_line")


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


def _run(name):
    cell = _CELLS[name]
    return run_cell(cell["fn"], cell["params"], cell["seed"])


@pytest.mark.parametrize("name", _CONVOLVE)
def test_no_node_runs_two_rate_passes_in_one_instant(name, monkeypatch):
    passes = collections.Counter()
    settle = Node._settle

    def counted(node):
        passes[(node, node.engine.now)] += 1
        settle(node)

    monkeypatch.setattr(Node, "_settle", counted)
    _run(name)
    assert passes and max(passes.values()) == 1


@pytest.mark.parametrize("name", _CONVOLVE)
def test_no_executor_integrates_a_window_while_its_node_is_unsettled(
        name, monkeypatch):
    """Every positive window an executor integrates runs at settled
    rates.  A window may end at the very instant its node became
    unsettled (another CPU's completion timer fired first in that
    instant, and the window closes there), but no window is integrated
    while the node has been unsettled since an earlier instant: the
    clock never moves past an unsettled node."""
    unsettled_at = {}
    unsettle = Node.unsettle

    def recording(node):
        if not node.unsettled:
            unsettled_at[node] = node.engine.now
        unsettle(node)

    sync = RateExecutor.sync
    seen = collections.Counter()

    def checked(ex):
        now = ex.engine.now
        if now > ex._last_sync and ex._items:
            seen["windows"] += 1
            if ex.owner.unsettled:
                assert unsettled_at[ex.owner] == now
                seen["closing"] += 1
        sync(ex)

    monkeypatch.setattr(Node, "unsettle", recording)
    monkeypatch.setattr(RateExecutor, "sync", checked)
    _run(name)
    assert seen["windows"] > seen["closing"]
