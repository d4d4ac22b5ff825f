"""Figure series and terminal rendering.

The harness regenerates Figures 1–2 as data series (CSV on request) plus
a monospace chart so ``repro-smm figure1``/``figure2`` show the shapes
directly in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import StringIO
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Series", "ascii_chart", "series_csv"]


@dataclass
class Series:
    """One labelled line of a figure: sorted (x, y) points."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((float(x), float(y)))

    def xs(self) -> List[float]:
        return [p[0] for p in sorted(self.points)]

    def ys(self) -> List[float]:
        return [p[1] for p in sorted(self.points)]


def series_csv(series: Sequence[Series], x_name: str = "x") -> str:
    """Wide CSV: one x column, one column per series (x values unioned)."""
    xs = sorted({x for s in series for x, _ in s.points})
    lookup: List[Dict[float, float]] = [dict(s.points) for s in series]
    out = StringIO()
    out.write(x_name + "," + ",".join(s.label for s in series) + "\n")
    for x in xs:
        row = [f"{x:g}"]
        for d in lookup:
            row.append(f"{d[x]:.6g}" if x in d else "")
        out.write(",".join(row) + "\n")
    return out.getvalue()


def ascii_chart(
    series: Sequence[Series],
    width: int = 72,
    height: int = 18,
    title: str = "",
    y_label: str = "",
    x_label: str = "",
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
) -> str:
    """A scatter-line chart in monospace (series marked 1..9, a..z).

    ``y_min``/``y_max`` pin the y range — pass the same pair to several
    charts to render them on a shared scale (the ``explain`` breakdowns
    and the Figure 1/2 panels use this so CI-log charts are comparable).
    Interior y-axis tick labels appear at the quarter lines.
    """
    pts = [(x, y) for s in series for x, y in s.points]
    if not pts:
        return "(empty chart)\n"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0 = min(ys) if y_min is None else y_min
    y1 = max(ys) if y_max is None else y_max
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    grid = [[" "] * width for _ in range(height)]
    marks = "123456789abcdefghijklmnopqrstuvwxyz"
    for si, s in enumerate(series):
        mark = marks[si % len(marks)]
        for x, y in sorted(s.points):
            cx = int((x - x0) / (x1 - x0) * (width - 1))
            cy = int((y - y0) / (y1 - y0) * (height - 1))
            cy = max(0, min(height - 1, cy))
            grid[height - 1 - cy][cx] = mark
    # Interior tick rows: the quarter lines, skipping the labeled ends.
    ticks = {
        round(k * (height - 1) / 4)
        for k in (1, 2, 3)
    } - {0, height - 1}
    out = StringIO()
    if title:
        out.write(title + "\n")
    out.write(f"{y1:>10.4g} ┤" + "".join(grid[0]) + "\n")
    for i, row in enumerate(grid[1:-1], start=1):
        if i in ticks:
            yv = y1 - i * (y1 - y0) / (height - 1)
            out.write(f"{yv:>10.4g} ┤" + "".join(row) + "\n")
        else:
            out.write(" " * 10 + " │" + "".join(row) + "\n")
    out.write(f"{y0:>10.4g} ┤" + "".join(grid[-1]) + "\n")
    out.write(" " * 12 + "└" + "─" * width + "\n")
    out.write(" " * 12 + f"{x0:<12.4g}{x_label:^{max(0, width - 24)}}{x1:>12.4g}\n")
    legend = "   ".join(f"{marks[i % len(marks)]}={s.label}" for i, s in enumerate(series))
    out.write("    " + legend + "\n")
    if y_label:
        out.write("    y: " + y_label + "\n")
    return out.getvalue()
