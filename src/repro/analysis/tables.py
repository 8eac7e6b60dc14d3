"""Plain-text (markdown) table rendering for CLI, suite and benchmark output."""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Iterable, List, Optional, Sequence


def format_number(value: Any) -> str:
    """Human-friendly numbers: separators for ints, scientific for huge."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        if abs(value) >= 10**15:
            # Decimal, not float: Protocol C's round counts pass 2**1024.
            return f"{Decimal(value):.3e}"
        return f"{value:,}"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 10**15:
            return f"{value:.3e}"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if value == int(value):
            return f"{int(value):,}"
        return f"{value:.2f}"
    if value is None:
        return "-"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an ASCII table (also valid GitHub-flavoured markdown)."""
    formatted: List[List[str]] = [[format_number(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(
            cell.ljust(widths[index]) for index, cell in enumerate(cells)
        ) + " |"

    parts: List[str] = []
    if title:
        parts.append(f"### {title}")
        parts.append("")
    parts.append(line([str(header) for header in headers]))
    parts.append("|" + "|".join("-" * (width + 2) for width in widths) + "|")
    parts.extend(line(row) for row in formatted)
    return "\n".join(parts)

