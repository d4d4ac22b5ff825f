"""Figure 2 (UnixBench under SMI noise) as `repro.runx` cell specs.

The paper measures SMI intervals "from 100ms to 1600ms at 500 ms
increments" for each CPU configuration and plots the total index score
(higher is better) against the gap between SMIs; short SMIs showed no
effect (§IV.C) — each cell also records the short-SMI index at 100 ms
so that claim can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.figures import Series, ascii_chart, series_csv

__all__ = [
    "Figure2Data",
    "render_figure2",
    "figure2_cell_specs",
    "assemble_figure2",
]

_INTERVALS = (100, 600, 1100, 1600)  # the paper's grid
_CPU_CONFIGS_QUICK = (1, 2, 4, 8)
_CPU_CONFIGS_FULL = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass
class Figure2Data:
    #: per-CPU-config Series of total index vs SMI interval (long SMIs).
    long_series: List[Series] = field(default_factory=list)
    #: no-SMI baseline index per CPU config.
    baselines: Dict[int, float] = field(default_factory=dict)
    #: short-SMI index per CPU config at the fastest interval (the paper's
    #: "no noticeable effect" check).
    short_at_100ms: Dict[int, float] = field(default_factory=dict)


def figure2_cell_specs(quick: bool, seed: int) -> List:
    """Figure 2 as `repro.runx` cell specs: one cell per CPU config
    (baseline + short-SMI check + the long-SMI interval sweep)."""
    from repro.runx.spec import CellSpec

    cpus = _CPU_CONFIGS_QUICK if quick else _CPU_CONFIGS_FULL
    return [
        CellSpec(
            id=f"figure2 {k}cpu",
            fn="unixbench",
            params={"cpus": k, "intervals_ms": list(_INTERVALS)},
            base_seed=seed,
        )
        for k in cpus
    ]


def assemble_figure2(quick: bool, results: Dict) -> Figure2Data:
    """Reduce `repro.runx` results into :class:`Figure2Data`; failed CPU
    configs are left out of the chart and baselines."""
    cpus = _CPU_CONFIGS_QUICK if quick else _CPU_CONFIGS_FULL
    data = Figure2Data()
    for k in cpus:
        res = results.get(f"figure2 {k}cpu")
        if res is None or not res.ok or not res.value:
            continue
        data.baselines[k] = res.value["baseline"]
        data.short_at_100ms[k] = res.value["short_at_100ms"]
        data.long_series.append(Series(
            label=f"{k}cpu",
            points=[(float(iv), float(y)) for iv, y in res.value["points"]],
        ))
    return data


def render_figure2(data: Figure2Data, csv: bool = False) -> str:
    if csv:
        return series_csv(data.long_series, x_name="interval_ms")
    out = [
        ascii_chart(
            data.long_series,
            title="Figure 2 — UnixBench total index vs SMI interval (long SMIs)",
            x_label="gap between SMIs (ms) — larger = lower frequency",
            y_label="UnixBench index (higher is better)",
            y_min=0.0,
        )
    ]
    out.append("baselines (no SMIs): " + "  ".join(
        f"{k}cpu={v:.0f}" for k, v in sorted(data.baselines.items())
    ))
    out.append("short SMIs @100ms:   " + "  ".join(
        f"{k}cpu={v:.0f}" for k, v in sorted(data.short_at_100ms.items())
    ))
    return "\n".join(out)
