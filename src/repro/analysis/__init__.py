"""repro.analysis — statistics, table rendering, figure series.

Everything the benchmark harness needs to turn raw runs into the paper's
artifacts: Δ/%Δ tables in the layout of Tables 1–5, series + ASCII charts
for Figures 1–2, and the paper-vs-measured comparison records that feed
EXPERIMENTS.md.
"""

from repro.analysis.stats import (
    mean,
    geomean,
    pct_change,
    confidence_interval95,
    summarize,
    Summary,
)
from repro.analysis.figures import Series, ascii_chart, series_csv
from repro.analysis.tables import NasTableRow, render_nas_table, render_htt_table
from repro.analysis.report import Comparison, ShapeCheck

__all__ = [
    "mean",
    "geomean",
    "pct_change",
    "confidence_interval95",
    "summarize",
    "Summary",
    "Series",
    "ascii_chart",
    "series_csv",
    "NasTableRow",
    "render_nas_table",
    "render_htt_table",
    "Comparison",
    "ShapeCheck",
]
