"""Report rendering: traces and results as Markdown / CSV.

The fixed-width renderer in :mod:`repro.core.trace` targets terminals;
papers, wikis, and spreadsheets want Markdown tables and CSV rows.  This
module renders the framework's result objects into both, without any
third-party dependency:

- :func:`trace_to_markdown` / :func:`trace_to_csv` — a
  :class:`~repro.core.trace.SelectionTrace` in Table 1's column layout;
- :func:`result_to_markdown` — a one-result summary block;
- :func:`comparison_table` — generic algorithm-comparison tables (used by
  benches and the examples to render their sweeps).
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Optional, Sequence

from repro.core.selection import SelectionResult
from repro.core.trace import SelectionTrace

__all__ = [
    "markdown_table",
    "trace_to_markdown",
    "trace_to_csv",
    "result_to_markdown",
    "comparison_table",
]

_TRACE_HEADERS = (
    "Round",
    "Considered Set (VT)",
    "Candidate set (CS)",
    "Selected",
    "Selected Path",
    "Frame Rate",
    "Satisfaction",
)


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """A GitHub-flavored Markdown table.

    Pipes inside cells are escaped; all cells are stringified.
    """

    def clean(cell: object) -> str:
        return str(cell).replace("|", "\\|")

    lines = [
        "| " + " | ".join(clean(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(clean(cell) for cell in row) + " |")
    return "\n".join(lines)


def trace_to_markdown(trace: SelectionTrace) -> str:
    """The selection trace as a Markdown table (Table 1's layout)."""
    return markdown_table(_TRACE_HEADERS, trace.table_rows())


def trace_to_csv(trace: SelectionTrace) -> str:
    """The selection trace as CSV text with a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_TRACE_HEADERS)
    writer.writerows(trace.table_rows())
    return buffer.getvalue()


def result_to_markdown(result: SelectionResult, title: str = "Selection result") -> str:
    """A compact Markdown summary of one selection result."""
    lines = [f"### {title}", ""]
    if not result.success:
        lines.append(f"**FAILURE** after {result.rounds_run} rounds: "
                     f"{result.failure_reason}")
        return "\n".join(lines)
    rows = [
        ("selected path", ",".join(result.path)),
        ("via formats", " → ".join(result.formats)),
        ("satisfaction", f"{result.satisfaction:.4f}"),
        ("accumulated cost", f"{result.accumulated_cost:.2f}"),
        ("rounds run", str(result.rounds_run)),
    ]
    frame_rate = result.delivered_frame_rate
    if frame_rate is not None:
        rows.insert(2, ("delivered frame rate", f"{frame_rate:.2f} fps"))
    if result.stats is not None:
        rows.append(
            (
                "optimize calls",
                f"{result.stats.optimize_calls} "
                f"({result.stats.memo_hit_rate * 100:.0f}% memoized)",
            )
        )
    lines.append(markdown_table(("property", "value"), rows))
    return "\n".join(lines)


def comparison_table(
    criteria: Sequence[str],
    entries: Sequence[tuple],
    highlight_best: Optional[int] = None,
) -> str:
    """A Markdown comparison of named alternatives.

    ``entries`` are ``(name, value_1, ..., value_n)`` tuples matching
    ``criteria``.  With ``highlight_best`` set to a column index (into the
    values), the row whose *numeric* value in that column is largest gets
    bolded — handy for "which algorithm won" tables.
    """
    best_row = -1
    if highlight_best is not None and entries:
        def key(entry: tuple) -> float:
            try:
                return float(entry[1 + highlight_best])
            except (TypeError, ValueError):
                return float("-inf")

        best_row = max(range(len(entries)), key=lambda i: key(entries[i]))
    rows = []
    for index, entry in enumerate(entries):
        name, *values = entry
        if index == best_row:
            name = f"**{name}**"
        rows.append((name, *[str(v) for v in values]))
    return markdown_table(("alternative", *criteria), rows)
