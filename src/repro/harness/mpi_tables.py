"""Builders for Tables 1–3 (the MPI study).

Two execution paths share one matrix definition:

* :func:`build_table` — the legacy in-process serial build;
* :func:`table_cell_specs` + :func:`assemble_table` — the same matrix as
  serializable `repro.runx` cell specs (crash-isolated, parallel,
  resumable) and the reducer that turns ``{cell_id: CellResult}`` back
  into table rows.  Seeds are identical in both paths, so their rendered
  output is bit-for-bit the same.
"""

from __future__ import annotations

import logging
from statistics import mean
from typing import Dict, List, Optional

from repro.analysis.tables import NasTableRow, render_nas_table, rows_csv
from repro.apps.nas.params import NasClass
from repro.apps.nas.study import NasConfig, run_nas_config
from repro.core.experiment import run_repeated, smm_cell_seed
from repro.harness.common import bench_full
from repro.paperdata import paper_cell

__all__ = [
    "table_rows_spec",
    "build_table",
    "render",
    "table_cell_specs",
    "assemble_table",
]

log = logging.getLogger(__name__)

#: row indices per benchmark, from the paper's tables.
_ROWS = {"BT": (1, 4, 16), "EP": (1, 2, 4, 8, 16), "FT": (1, 2, 4, 8, 16)}
_TABLE_NO = {"BT": 1, "EP": 2, "FT": 3}


def table_rows_spec(bench: str, quick: bool) -> List[tuple]:
    """(cls, row) pairs to measure."""
    classes = [NasClass.A] if quick else [NasClass.A, NasClass.B, NasClass.C]
    return [(c, r) for c in classes for r in _ROWS[bench]]


def build_table(
    bench: str,
    quick: bool = True,
    reps: int = 1,
    seed: int = 1,
    progress=None,
    manifest=None,
    metrics=None,
) -> Dict[int, List[NasTableRow]]:
    """Measure both halves of a table; returns {ranks_per_node: rows}.

    ``manifest`` (a :class:`repro.obs.manifest.RunManifest`) receives the
    planned matrix and per-cell timings; ``metrics`` (a
    :class:`repro.obs.metrics.MetricsRegistry`) collects engine/SMM/
    network counters across every run of the table.
    """
    halves: Dict[int, List[NasTableRow]] = {}
    for rpn in (1, 4):
        rows: List[NasTableRow] = []
        for cls, row in table_rows_spec(bench, quick):
            cfg = NasConfig(bench, cls, nodes=row, ranks_per_node=rpn)
            cells: Dict[int, float] = {}
            for smm in (0, 1, 2):
                if progress:
                    progress(f"{bench}.{cls.value} row={row} rpn={rpn} smm={smm}")
                log.info("cell %s.%s row=%d rpn=%d smm=%d reps=%d",
                         bench, cls.value, row, rpn, smm, reps)
                if manifest is not None:
                    manifest.plan_cell(
                        bench=bench, cls=cls.value, nodes=row,
                        ranks_per_node=rpn, smm=smm, reps=reps,
                        base_seed=smm_cell_seed(seed, smm),
                    )
                m = run_repeated(
                    lambda s, cfg=cfg, smm=smm: run_nas_config(
                        cfg, smm=smm, seed=s, metrics=metrics),
                    reps=reps,
                    base_seed=smm_cell_seed(seed, smm),
                )
                cells[smm] = m.mean if m is not None else None
                if manifest is not None:
                    manifest.add_cell(
                        f"{bench}.{cls.value} n={row} rpn={rpn} smm={smm}",
                        mean_s=m.mean if m is not None else None,
                        values_s=m.values if m is not None else None,
                    )
            rows.append(
                NasTableRow(
                    cls=cls.value,
                    row=row,
                    smm=cells,
                    paper=paper_cell(bench, rpn, cls, row),
                )
            )
        halves[rpn] = rows
    return halves


def table_cell_specs(bench: str, quick: bool, reps: int, seed: int) -> List:
    """The table's matrix as serializable `repro.runx` cell specs.

    One spec per (class, row, ranks-per-node, smm) cell; ids double as
    checkpoint/resume keys and match the legacy manifest labels.
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
