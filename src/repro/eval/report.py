"""Plain-text table rendering for the experiment drivers.

Every evaluation driver returns a :class:`Table`; the benchmark harness
renders it to the terminal and archives it under ``benchmarks/results/``
so EXPERIMENTS.md can reference regenerated numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Union

from repro.errors import ReproError
from repro.obs.export import write_text

Cell = Union[str, int, float, None]


def format_cell(value: Cell, precision: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 10:
        return f"{value:.1f}"
    return f"{value:.{precision}f}"


@dataclass
class Table:
    """A titled grid of cells with named columns."""

    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ReproError(
                f"table {self.title!r}: row has {len(cells)} cells, "
                f"expected {len(self.columns)}"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Cell]:
        """Values of a named column across rows."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ReproError(
                f"table {self.title!r} has no column {name!r}"
            ) from None
        return [row[idx] for row in self.rows]

    def row_by_key(self, key: str) -> List[Cell]:
        """First row whose first cell equals ``key``."""
        for row in self.rows:
            if row and row[0] == key:
                return row
        raise ReproError(f"table {self.title!r} has no row {key!r}")

    def value(self, row_key: str, column: str) -> Cell:
        """Cell lookup by row key (first column) and column name."""
        idx = self.columns.index(column) if column in self.columns else None
        if idx is None:
            raise ReproError(
                f"table {self.title!r} has no column {column!r}"
            )
        return self.row_by_key(row_key)[idx]

    def render(self, precision: int = 2) -> str:
        """Aligned plain-text rendering."""
        grid = [self.columns] + [
            [format_cell(c, precision) for c in row] for row in self.rows
        ]
        widths = [
            max(len(str(grid_row[i])) for grid_row in grid)
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            str(c).ljust(widths[i]) for i, c in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in grid[1:]:
            lines.append("  ".join(
                row[i].ljust(widths[i]) for i in range(len(row))
            ))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self, precision: int = 2) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(format_cell(c, precision) for c in row)
                + " |"
            )
        for note in self.notes:
            lines.append(f"\n_{note}_")
        return "\n".join(lines)


def results_dir() -> str:
    """Directory where benchmark runs archive their tables."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    return os.path.join(here, "benchmarks", "results")


def archive(table: Table, filename: str) -> str:
    """Save a table under benchmarks/results/; returns the path."""
    return write_text(os.path.join(results_dir(), filename),
                      table.render())
