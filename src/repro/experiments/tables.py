"""Plain-text result tables for the figure reports."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "paper_vs_measured"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def paper_vs_measured(title: str, claims: Sequence[Sequence]) -> str:
    """Render a paper-claim vs measured-value table.

    Each claim row is ``(quantity, paper_value, measured_value, holds)``.
    """
    body = format_table(
        ["quantity", "paper", "measured", "holds"],
        [(q, p, m, "yes" if ok else "NO") for q, p, m, ok in claims],
    )
    bar = "=" * max(len(title), 20)
    return f"\n{bar}\n{title}\n{bar}\n{body}\n"
