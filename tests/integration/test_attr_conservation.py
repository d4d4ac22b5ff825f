"""Attribution invariants on real table cells.

Two properties gate the attribution engine:

1. **Conservation** — the four components (direct / induced / contention
   / residual) must tile the measured slowdown, with |residual| within
   tolerance of the slowdown.  The decomposition is built along the
   terminal rank's exact timeline, so in practice the residual is ~0;
   the 5% tolerance is headroom, not slack being used.
2. **Determinism** — the attribution block an ``--attr`` sweep joins from
   a noisy cell and its row's smm=0 cell must be byte-identical whether
   the cells run in-process serially or in parallel worker subprocesses
   (``--jobs 4``), like every other payload.
"""

import json
import os

import pytest

from repro.obs.attr import attribute_cell
from repro.runx import CellResult, CellSpec, SweepRunner, join_attribution
from repro.runx.cells import run_cell

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "explain_cell.json")

with open(GOLDEN, encoding="utf-8") as fp:
    _GOLDEN = json.load(fp)


@pytest.mark.parametrize("bench,cls,nodes,rpn", [
    ("BT", "A", 4, 1),
    ("EP", "A", 2, 1),
    ("FT", "A", 4, 4),
])
def test_conservation_on_real_cells(bench, cls, nodes, rpn):
    a = attribute_cell(bench, cls=cls, nodes=nodes, rpn=rpn, smm=2, seed=1)
    d = a.decomposition
    assert d.conserved, (
        f"{bench}.{cls} n={nodes}: residual {d.residual_s:.4f}s is "
        f"{100 * d.residual_frac:.1f}% of the slowdown")
    total = d.direct_s + d.induced_s + d.contention_s + d.residual_s
    assert total == pytest.approx(d.slowdown_s, abs=1e-9)


def test_direct_share_tracks_duty_cycle():
    """The paper's core claim, recovered by the decomposition: direct
    theft is ~the SMI duty cycle of the runtime; the rest of the
    slowdown on communicating benchmarks is amplification."""
    a = attribute_cell("BT", cls="A", nodes=16, rpn=1, smm=2, seed=1)
    r = a.report
    assert r["direct_share_of_runtime_pct"] == pytest.approx(
        r["duty_nominal_pct"], abs=2.0)
    # BT at 16 ranks communicates heavily: induced wait dominates.
    c = r["components"]
    assert c["induced_wait_s"] > c["direct_smi_s"]
    assert c["induced_wait_s"] > 0.5 * r["slowdown_s"]


#: The golden noisy cell and the smm=0 cell of its row, which the sweep
#: joins it with.
_SPECS = [
    CellSpec(id=f"EP.A n=2 rpn=1 smm={smm}", fn=_GOLDEN["fn"],
             base_seed=_GOLDEN["seed"],
             params={**_GOLDEN["params"], "smm": smm})
    for smm in (0, _GOLDEN["params"]["smm"])
]


def _joined(results):
    return join_attribution(_SPECS, results)[0][_SPECS[1].id].value


def test_golden_attribution_payload_is_byte_identical():
    results = {s.id: CellResult(id=s.id, status="ok",
                                value=run_cell(s.fn, s.params, s.base_seed))
               for s in _SPECS}
    got = json.dumps(_joined(results), sort_keys=True)
    want = json.dumps(_GOLDEN["payload"], sort_keys=True)
    assert got == want, "attribution payload drifted from golden"


def test_attribution_identical_serial_vs_parallel():
    serial = SweepRunner(jobs=1, isolation="inline").run(_SPECS)
    parallel = SweepRunner(jobs=4, isolation="process").run(_SPECS)
    v1 = _joined(serial)
    v4 = _joined(parallel)
    assert "attribution" in v1
    assert json.dumps(v1, sort_keys=True) == json.dumps(v4, sort_keys=True)
