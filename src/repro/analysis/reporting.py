"""Plain-text table formatting for the experiment reports.

Every experiment prints its results in the same tabular shape that
docs/experiments.md records, so re-running a benchmark reproduces the documented
rows verbatim (up to randomness noted per experiment).  The experiment
sweeps themselves produce structured row dictionaries (see
:mod:`repro.experiments.runner`); :func:`table_from_records` lays those out
as a :class:`Table` in the declared column order, and
:meth:`Table.render`/:func:`format_table` produce the final aligned text.

The rendering is deliberately dumb and stable — title line, dashed rule,
headers, dashed rule, rows; floats formatted to two decimals, everything
else through ``str`` — because the golden-equivalence story depends on it:
two runs that compute identical rows must print byte-identical tables, and
several tests diff rendered tables directly.  Anything smarter (locale
awareness, unit scaling, column elision) belongs in a consumer, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence


@dataclass
class Table:
    """A simple column-aligned table.

    Attributes:
        title: printed above the table.
        columns: column headers; every row must supply exactly one cell per
            header, in the same order.
        rows: one list of cell values per row (floats render to two
            decimals, everything else through ``str``).
    """

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append a row.

        Raises:
            ValueError: if the number of cells does not match the headers.
        """
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """Return the table as aligned plain text."""
        return format_table(self.title, self.columns, self.rows)


def table_from_records(
    title: str,
    columns: Sequence[str],
    records: Sequence[Mapping[str, object]],
) -> Table:
    """Build a :class:`Table` from row dictionaries keyed by ``columns``.

    This is how :meth:`~repro.experiments.runner.ExperimentResult.to_table`
    turns structured sweep rows back into the historical table: the record
    keys may hold extra entries, but every declared column must be present,
    and the column order — not the record order — decides the layout.

    Args:
        title: printed above the table.
        columns: the declared column order.
        records: one mapping per row, keyed by (at least) ``columns``.

    Raises:
        KeyError: when a record lacks one of the declared columns.
    """
    table = Table(title=title, columns=list(columns))
    for record in records:
        table.add_row(*(record[column] for column in columns))
    return table


def _format_cell(value: object) -> str:
    """Render one cell: floats to two decimals, everything else via ``str``."""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(title: str, columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render ``rows`` under ``columns`` with a title line and a rule.

    Column widths grow to the widest formatted cell (headers included);
    cells are left-justified and joined with two spaces.
    """
    formatted_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)
