"""ASCII table rendering and paper-vs-measured comparison helpers.

Every experiment module prints its results with these, so the benchmark
harness output looks like the tables in the paper.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional, Sequence

import numpy as np

__all__ = ["render_table", "format_value", "ComparisonRow", "render_comparison",
           "ascii_sparkline", "ascii_series"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def format_value(value: Any, floatfmt: str = ".2f") -> str:
    """Human-friendly cell formatting (NaN → '-', floats per format)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if math.isinf(value):
            return "inf"
        return f"{value:{floatfmt}}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: Optional[str] = None, floatfmt: str = ".2f") -> str:
    """Monospace table with a header rule, e.g.::

        rps | Round Robin | File locality | SWEB
        ----+-------------+---------------+-----
         10 |        4.33 |          4.21 | 4.15
    """
    cells = [[format_value(v, floatfmt) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _bucketed(values: Iterable[float], width: int) -> np.ndarray:
    """The series as floats, averaged into ``width`` buckets if longer."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size > width:
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else arr[min(a, arr.size - 1)]
                        for a, b in zip(edges[:-1], edges[1:])])
    return arr


def ascii_sparkline(values: Iterable[float], width: int = 60) -> str:
    """Compress a series into a fixed-width block-character sparkline."""
    arr = _bucketed(values, width)
    if arr.size == 0:
        return ""
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _BLOCKS[1] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_BLOCKS) - 2) + 1
    return "".join(_BLOCKS[int(round(s))] for s in scaled)


def ascii_series(values: Iterable[float], height: int = 8, width: int = 60,
                 label: str = "") -> str:
    """A multi-line bar chart of a series (rows = magnitude bands)."""
    arr = _bucketed(values, width)
    if arr.size == 0:
        return "(no data)"
    hi = float(arr.max())
    if hi <= 0:
        hi = 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = hi * (level - 0.5) / height
        row = "".join("█" if v >= threshold else " " for v in arr)
        prefix = f"{hi * level / height:8.2f} |" if level in (height, 1) \
            else "         |"
        rows.append(prefix + row)
    rows.append("         +" + "-" * len(arr))
    if label:
        rows.append(f"          {label}")
    return "\n".join(rows)


class ComparisonRow:
    """One paper-vs-measured line with a shape check.

    ``check`` describes the *qualitative* expectation ("SWEB < RR",
    "superlinear", "order of magnitude"), and ``ok`` whether the measured
    values satisfy it — absolute agreement is not expected because the
    substrate is a simulator, not the authors' Meiko.
    """

    def __init__(self, label: str, paper: Any, measured: Any,
                 check: str = "", ok: Optional[bool] = None) -> None:
        self.label = label
        self.paper = paper
        self.measured = measured
        self.check = check
        self.ok = ok

    def as_row(self) -> list[Any]:
        verdict = "-" if self.ok is None else ("yes" if self.ok else "NO")
        return [self.label, self.paper, self.measured, self.check, verdict]


def render_comparison(rows: Sequence[ComparisonRow],
                      title: str = "paper vs measured") -> str:
    return render_table(
        headers=["quantity", "paper", "measured", "shape check", "holds"],
        rows=[r.as_row() for r in rows],
        title=title,
    )
