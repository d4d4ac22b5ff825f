"""Tables 1–3 (the MPI study) as `repro.runx` cell specs.

:func:`table_cell_specs` lays the matrix out as serializable specs (one
per class, row, ranks-per-node and SMI class, with position-derived
seeds), :func:`assemble_table` reduces ``{cell_id: CellResult}`` back into
table rows, and :func:`render` prints them next to the paper's values.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Optional

from repro.analysis.tables import NasTableRow, render_nas_table, rows_csv
from repro.apps.nas.params import NasClass
from repro.core.experiment import smm_cell_seed
from repro.paperdata import paper_cell

__all__ = [
    "table_rows_spec",
    "render",
    "table_cell_specs",
    "assemble_table",
]

#: row indices per benchmark, from the paper's tables.
_ROWS = {"BT": (1, 4, 16), "EP": (1, 2, 4, 8, 16), "FT": (1, 2, 4, 8, 16)}
_TABLE_NO = {"BT": 1, "EP": 2, "FT": 3}


def table_rows_spec(bench: str, quick: bool) -> List[tuple]:
    """(cls, row) pairs to measure."""
    classes = [NasClass.A] if quick else [NasClass.A, NasClass.B, NasClass.C]
    return [(c, r) for c in classes for r in _ROWS[bench]]


def table_cell_specs(bench: str, quick: bool, reps: int, seed: int) -> List:
    """The table's matrix as serializable `repro.runx` cell specs.

    One spec per (class, row, ranks-per-node, smm) cell; ids double as
    checkpoint/resume keys.
    """
    from repro.runx.spec import CellSpec

    specs: List[CellSpec] = []
    for rpn in (1, 4):
        for cls, row in table_rows_spec(bench, quick):
            for smm in (0, 1, 2):
                specs.append(CellSpec(
                    id=f"{bench}.{cls.value} n={row} rpn={rpn} smm={smm}",
                    fn="nas",
                    params={"bench": bench, "cls": cls.value, "nodes": row,
                            "rpn": rpn, "smm": smm, "reps": reps},
                    base_seed=smm_cell_seed(seed, smm),
                ))
    return specs


def assemble_table(
    bench: str, quick: bool, results: Dict,
) -> Dict[int, List[NasTableRow]]:
    """Reduce `repro.runx` results back into the table's row structure.

    A failed or missing cell becomes ``None`` — rendered exactly like the
    paper's infeasible "-" cells, so a partially failed sweep still
    produces a readable table.
    """
    halves: Dict[int, List[NasTableRow]] = {}
    for rpn in (1, 4):
        rows: List[NasTableRow] = []
        for cls, row in table_rows_spec(bench, quick):
            cells: Dict[int, Optional[float]] = {}
            for smm in (0, 1, 2):
                cid = f"{bench}.{cls.value} n={row} rpn={rpn} smm={smm}"
                res = results.get(cid)
                values = res.value.get("values") if (
                    res is not None and res.ok and res.value) else None
                cells[smm] = mean(values) if values else None
            rows.append(NasTableRow(
                cls=cls.value, row=row, smm=cells,
                paper=paper_cell(bench, rpn, cls, row),
            ))
        halves[rpn] = rows
    return halves


def render(bench: str, halves: Dict[int, List[NasTableRow]], csv: bool = False) -> str:
    n = _TABLE_NO[bench]
    if csv:
        return "".join(
            f"# ranks_per_node={rpn}\n{rows_csv(rows)}" for rpn, rows in halves.items()
        )
    out = []
    for rpn, rows in halves.items():
        out.append(
            render_nas_table(
                f"Table {n}: {bench} — {rpn} MPI rank(s) per node "
                "(simulated vs paper)",
                rows,
            )
        )
    return "\n".join(out)
