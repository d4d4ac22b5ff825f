"""Figure 1 (Convolve experiments) as `repro.runx` cell specs.

Left graphs: execution time vs SMI interval (long SMIs, the paper sweeps
50–1500 ms in 50 ms steps), one line per logical-CPU configuration.
Right graphs: execution time vs logical-CPU count at a fixed 50 ms
interval, with repetition spread (the paper plots 3 runs and discusses
the variance).  Both for the CacheUnfriendly (top) and CacheFriendly
(bottom) configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.figures import Series, ascii_chart, series_csv
from repro.apps.convolve import CACHE_FRIENDLY, CACHE_UNFRIENDLY

__all__ = [
    "Figure1Data",
    "render_figure1",
    "figure1_cell_specs",
    "assemble_figure1",
]

_CPU_CONFIGS_QUICK = (1, 2, 4, 8)
_CPU_CONFIGS_FULL = (1, 2, 3, 4, 5, 6, 7, 8)


def _intervals(quick: bool) -> List[int]:
    if quick:
        return [50, 100, 200, 400, 600, 900, 1200, 1500]
    return list(range(50, 1501, 50))  # the paper's 50 ms grid


@dataclass
class Figure1Data:
    """All series of the four panels."""

    #: config name -> list of per-CPU-config Series over SMI interval (ms).
    left: Dict[str, List[Series]] = field(default_factory=dict)
    #: config name -> Series over CPU count at 50 ms interval (per seed).
    right: Dict[str, List[Series]] = field(default_factory=dict)
    baselines: Dict[str, Dict[int, float]] = field(default_factory=dict)


def figure1_cell_specs(quick: bool, seed: int, reps_right: int = 3) -> List:
    """Figure 1 as `repro.runx` cell specs: one cell per left-panel line
    (baseline + full interval sweep of one CPU config) and one per
    right-panel repetition — coarse enough to amortize worker startup,
    fine enough that a crash loses one line, not a panel."""
    from repro.runx.spec import CellSpec

    cpus = _CPU_CONFIGS_QUICK if quick else _CPU_CONFIGS_FULL
    intervals = _intervals(quick)
    specs: List[CellSpec] = []
    for config in (CACHE_UNFRIENDLY, CACHE_FRIENDLY):
        for k in cpus:
            specs.append(CellSpec(
                id=f"figure1 {config.name} {k}cpu left",
                fn="convolve_line",
                params={"config": config.name, "cpus": k,
                        "intervals_ms": list(intervals)},
                base_seed=seed,
            ))
        for rep in range(reps_right):
            specs.append(CellSpec(
                id=f"figure1 {config.name} run{rep + 1} right",
                fn="convolve_run",
                params={"config": config.name, "cpus": list(cpus),
                        "interval_ms": 50},
                base_seed=seed + 101 * (rep + 1),
            ))
    return specs


def assemble_figure1(quick: bool, results: Dict,
                     reps_right: int = 3) -> Figure1Data:
    """Reduce `repro.runx` results into :class:`Figure1Data`.

    Failed cells are simply absent from their panel (the chart renders
    the surviving lines; the CLI's failure summary names the holes).
    """
    cpus = _CPU_CONFIGS_QUICK if quick else _CPU_CONFIGS_FULL
    data = Figure1Data()
    for config in (CACHE_UNFRIENDLY, CACHE_FRIENDLY):
        lines: List[Series] = []
        data.baselines[config.name] = {}
        for k in cpus:
            res = results.get(f"figure1 {config.name} {k}cpu left")
            if res is None or not res.ok or not res.value:
                continue
            data.baselines[config.name][k] = res.value["baseline"]
            lines.append(Series(
                label=f"{k}cpu",
                points=[(float(iv), float(y))
                        for iv, y in res.value["points"]],
            ))
        data.left[config.name] = lines
        runs: List[Series] = []
        for rep in range(reps_right):
            res = results.get(f"figure1 {config.name} run{rep + 1} right")
            if res is None or not res.ok or not res.value:
                continue
            runs.append(Series(
                label=f"run{rep + 1}",
                points=[(float(k), float(y))
                        for k, y in res.value["points"]],
            ))
        data.right[config.name] = runs
    return data


def render_figure1(data: Figure1Data, csv: bool = False) -> str:
    out = []
    for name in ("CacheUnfriendly", "CacheFriendly"):
        if csv:
            out.append(f"# Figure 1 left — {name} (x = SMI interval ms)")
            out.append(series_csv(data.left[name], x_name="interval_ms"))
            out.append(f"# Figure 1 right — {name} (x = logical CPUs @50ms)")
            out.append(series_csv(data.right[name], x_name="cpus"))
        else:
            out.append(
                ascii_chart(
                    data.left[name],
                    title=f"Figure 1 (left) — Convolve {name}: time vs SMI interval",
                    x_label="SMI interval (ms, long SMIs)",
                    y_label="execution time (s)",
                    y_min=0.0,
                )
            )
            out.append(
                ascii_chart(
                    data.right[name],
                    title=f"Figure 1 (right) — Convolve {name}: time vs CPUs @50 ms",
                    x_label="online logical CPUs",
                    y_label="execution time (s)",
                    y_min=0.0,
                )
            )
    return "\n".join(out)
