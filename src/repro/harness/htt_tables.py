"""Tables 4–5 (HTT × SMI at 4 ranks per node) as `repro.runx` cell specs.

Like :mod:`repro.harness.mpi_tables`: :func:`htt_cell_specs` lays out the
matrix, :func:`assemble_htt_table` reduces the results into rows, and
:func:`render_htt` prints them.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Optional

from repro.analysis.tables import HttRow, render_htt_table
from repro.apps.nas.params import NasClass
from repro.core.experiment import smm_cell_seed
from repro.paperdata import TABLE4_EP_HTT, TABLE5_FT_HTT

__all__ = [
    "render_htt",
    "htt_cell_specs",
    "assemble_htt_table",
]

_PAPER = {"EP": TABLE4_EP_HTT, "FT": TABLE5_FT_HTT}
_TABLE_NO = {"EP": 4, "FT": 5}
_ROWS = (1, 2, 4, 8, 16)


def htt_cell_specs(bench: str, quick: bool, reps: int, seed: int) -> List:
    """Tables 4–5 as serializable `repro.runx` cell specs."""
    from repro.runx.spec import CellSpec

    classes = [NasClass.A] if quick else [NasClass.A, NasClass.B, NasClass.C]
    specs: List[CellSpec] = []
    for cls in classes:
        for row in _ROWS:
            for smm in (0, 1, 2):
                for htt in (False, True):
                    specs.append(CellSpec(
                        id=(f"{bench}.{cls.value} n={row} smm={smm} "
                            f"ht={int(htt)}"),
                        fn="nas",
                        params={"bench": bench, "cls": cls.value,
                                "nodes": row, "rpn": 4, "htt": htt,
                                "smm": smm, "reps": reps},
                        base_seed=smm_cell_seed(seed, smm, htt),
                    ))
    return specs


def assemble_htt_table(bench: str, quick: bool, results: Dict) -> List[HttRow]:
    """Reduce `repro.runx` results into HTT rows (failures become "-")."""
    classes = [NasClass.A] if quick else [NasClass.A, NasClass.B, NasClass.C]
    rows: List[HttRow] = []
    for cls in classes:
        for row in _ROWS:
            cells: Dict[int, tuple] = {}
            for smm in (0, 1, 2):
                pair: List[Optional[float]] = []
                for htt in (False, True):
                    cid = f"{bench}.{cls.value} n={row} smm={smm} ht={int(htt)}"
                    res = results.get(cid)
                    values = res.value.get("values") if (
                        res is not None and res.ok and res.value) else None
                    pair.append(mean(values) if values else None)
                cells[smm] = tuple(pair)
            rows.append(HttRow(
                cls=cls.value, row=row, cells=cells,
                paper=_PAPER[bench].get((cls, row)),
            ))
    return rows


def render_htt(bench: str, rows: List[HttRow]) -> str:
    return render_htt_table(
        f"Table {_TABLE_NO[bench]}: Effect of HTT on {bench} with 4 MPI ranks "
        "per node (simulated vs paper Δ%)",
        rows,
    )
