"""repro.analysis — table rendering and figure series.

Everything the benchmark harness needs to turn raw runs into the paper's
artifacts: Δ/%Δ tables in the layout of Tables 1–5, and series + ASCII
charts for Figures 1–2.
"""

from repro.analysis.figures import Series, ascii_chart, series_csv
from repro.analysis.tables import NasTableRow, render_nas_table, render_htt_table

__all__ = [
    "Series",
    "ascii_chart",
    "series_csv",
    "NasTableRow",
    "render_nas_table",
    "render_htt_table",
]
