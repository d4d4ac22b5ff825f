"""Golden cells for the fault paths: a degraded CPU and a crashed node.

``golden/fault_cells.json`` pins cells that run through fault injection
at seed 555:

* ``ft_cpu_degrade`` — FT.A, 4 nodes, 1 rank per node, long SMIs; cpu 0
  of node 1 drops to half rate at 0.05 s.  Its payload (values and fault
  events) must stay byte-identical.
* ``ft_node_crash`` — the same FT.A cell with node 1 crashing at 0.1 s.
  The cell must fail with the same
  :class:`~repro.faults.FaultedRunError` message: which ranks failed and
  how.
* ``unixbench_cpu_degrade`` — one Figure-2 cell (1 CPU, the 1600 ms
  point) whose cpu 0 drops to half rate at 0.3 s of every sub-run.
* ``convolve_run_cpu_degrade`` — one Figure-1 right-panel cell
  (CacheFriendly, 2 CPUs) whose cpu 0 drops to half rate at 0.1 s.
* ``unixbench_node_crash`` — the UnixBench cell with node 0 crashing at
  0.3 s: the crashed copies' :class:`~repro.simx.errors.NodeFailedError`
  must reach the cell boundary (not a ``TypeError`` from summing it).
* ``convolve_run_node_crash`` — the Convolve cell with node 0 crashing at
  0.1 s: its workers all end, so the run returns and the cell fails on
  the injector's fatal-fault check.

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
