"""Golden cells for the fault paths: a degraded CPU and a crashed node.

``golden/fault_cells.json`` pins two FT.A cells (4 nodes, 1 rank per
node, long SMIs, seed 555) that run through fault injection:

* ``ft_cpu_degrade`` — cpu 0 of node 1 drops to half rate at 0.05 s.  Its
  payload (values and fault events) must stay byte-identical.
* ``ft_node_crash`` — node 1 crashes at 0.1 s.  The cell must fail with
  the same :class:`~repro.faults.FaultedRunError` message: which ranks
  failed and how.

These live apart from ``golden/cells.json`` because
``test_fault_determinism`` runs every cell there with an inert fault rule
in place of its own ``params["faults"]``.  Like the clean golden cells,
they guard every optimization to the engine, rate model, scheduler, or
MPI layer, and are regenerated only for an intentional model change::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.faults import FaultedRunError
    from repro.runx.cells import run_cell
    path = "tests/integration/golden/fault_cells.json"
    g = json.load(open(path))
    for c in g.values():
        try:
            c["payload"] = run_cell(c["fn"], c["params"], c["seed"])
        except FaultedRunError as exc:
            c["error"] = str(exc)
    json.dump(g, open(path, "w"), indent=2, sort_keys=True)
    PY
"""

import json
import os

import pytest

from repro.faults import FaultedRunError
from repro.runx.cells import run_cell

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fault_cells.json")

with open(GOLDEN, encoding="utf-8") as fp:
    _CELLS = json.load(fp)


@pytest.mark.parametrize("name", sorted(n for n in _CELLS
                                        if "payload" in _CELLS[n]))
def test_faulted_payload_is_byte_identical(name):
    cell = _CELLS[name]
    payload = run_cell(cell["fn"], cell["params"], cell["seed"])
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(cell["payload"], sort_keys=True)


@pytest.mark.parametrize("name", sorted(n for n in _CELLS
                                        if "error" in _CELLS[n]))
def test_faulted_run_fails_with_the_same_message(name):
    cell = _CELLS[name]
    with pytest.raises(FaultedRunError) as info:
        run_cell(cell["fn"], cell["params"], cell["seed"])
    assert str(info.value) == cell["error"]
