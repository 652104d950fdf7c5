"""Per-round tracing of the selection algorithm (Table 1's columns).

Table 1 of the paper shows, for every iteration of the algorithm: the
considered set ``VT``, the candidate set ``CS``, the selected trans-coding
service, the selected path, the delivered frame rate, and the user
satisfaction.  :class:`SelectionRound` is exactly one such row;
:class:`SelectionTrace` is the full table, with renderers that round the
way the paper rounds (two decimals for satisfaction, whole frames per
second) so the regenerated table can be compared cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["SelectionRound", "SelectionTrace"]


@dataclass(frozen=True)
class SelectionRound:
    """One row of Table 1.

    ``considered_set`` (VT) and ``candidate_set`` (CS) are snapshots taken
    *before* the round's selection, in insertion order with the receiver
    pinned last — the order the paper lists them in.  ``frame_rate`` and
    ``satisfaction`` describe the selected candidate's optimized
    configuration; ``frame_rate`` is ``None`` when the scenario has no
    frame-rate parameter.
    """

    number: int
    considered_set: Tuple[str, ...]
    candidate_set: Tuple[str, ...]
    selected: str
    path: Tuple[str, ...]
    frame_rate: Optional[float]
    satisfaction: float

    # ------------------------------------------------------------------
    # Paper-style rounded views
    # ------------------------------------------------------------------
    def displayed_frame_rate(self) -> str:
        """Frame rate rounded to a whole number, as Table 1 prints it."""
        if self.frame_rate is None:
            return "-"
        return str(int(round(self.frame_rate)))

    def displayed_satisfaction(self) -> str:
        """Satisfaction rounded to two decimals, as Table 1 prints it."""
        return f"{self.satisfaction:.2f}"

    def displayed_path(self) -> str:
        return ",".join(self.path)

    def displayed_sets(self) -> Tuple[str, str]:
        vt = "{ " + ", ".join(self.considered_set) + " }"
        cs = "{" + ", ".join(self.candidate_set) + "}"
        return vt, cs

    def as_paper_row(self) -> Tuple[str, str, str, str, str, str]:
        """The row in the paper's column order (Round is the row index)."""
        vt, cs = self.displayed_sets()
        return (
            vt,
            cs,
            self.selected,
            self.displayed_path(),
            self.displayed_frame_rate(),
            self.displayed_satisfaction(),
        )


@dataclass
class SelectionTrace:
    """The full per-round record of one selector run."""

    rounds: List[SelectionRound] = field(default_factory=list)

    def append(self, round_: SelectionRound) -> None:
        expected = len(self.rounds) + 1
        if round_.number != expected:
            raise ValueError(
                f"round numbered {round_.number}, expected {expected}"
            )
        self.rounds.append(round_)

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self):
        return iter(self.rounds)

    def __getitem__(self, index: int) -> SelectionRound:
        return self.rounds[index]

    def selected_sequence(self) -> List[str]:
        """The services in settlement order (Table 1's 'Selected' column)."""
        return [r.selected for r in self.rounds]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, max_set_width: int = 48) -> str:
        """A fixed-width text table mirroring Table 1's columns.

        Long VT/CS sets wrap onto continuation lines so the table stays
        readable in a terminal.
        """
        headers = (
            "Round",
            "Considered Set (VT)",
            "Candidate set (CS)",
            "Selected",
            "Path",
            "FPS",
            "Satisfaction",
        )
        rows = self.table_rows()
        widths = [
            min(max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i]), max_set_width)
            for i in range(len(headers))
        ]

        def wrap(text: str, width: int) -> List[str]:
            if len(text) <= width:
                return [text]
            pieces: List[str] = []
            current = ""
            for token in text.split(" "):
                extended = f"{current} {token}".strip()
                if len(extended) > width and current:
                    pieces.append(current)
                    current = token
                else:
                    current = extended
            if current:
                pieces.append(current)
            return pieces

        def emit(cells: Sequence[str]) -> List[str]:
            wrapped = [wrap(cell, widths[i]) for i, cell in enumerate(cells)]
            height = max(len(w) for w in wrapped)
            lines = []
            for line_index in range(height):
                parts = []
                for column, cell_lines in enumerate(wrapped):
                    text = cell_lines[line_index] if line_index < len(cell_lines) else ""
                    parts.append(text.ljust(widths[column]))
                lines.append("  ".join(parts).rstrip())
            return lines

        out: List[str] = []
        out.extend(emit(headers))
        out.append("  ".join("-" * w for w in widths))
        for row in rows:
            out.extend(emit(row))
        return "\n".join(out)

    def paper_rows(self) -> List[Tuple[str, str, str, str, str, str]]:
        """All rows in paper form, for cell-by-cell comparison in tests."""
        return [round_.as_paper_row() for round_ in self.rounds]

    def table_rows(self) -> List[Tuple[str, ...]]:
        """Table 1's rows with the round number first, one cell per column."""
        return [(str(round_.number),) + round_.as_paper_row() for round_ in self.rounds]
