"""ASCII Gantt rendering of who ran when.

Turns a run's server occupations — the
:class:`~repro.obs.analyze.lifecycle.Segment` list its event log folds
into (:attr:`~repro.obs.analyze.lifecycle.RunLifecycles.segments`) —
into a terminal chart: one row per transaction, one glyph column per
time bucket.  That makes scheduling decisions *visible*: preemptions
appear as split bars, the ASETS EDF/SRPT switch-over shows up as short
transactions punching through long ones, and idle periods are blank
columns.

Mainly a debugging and teaching aid (see ``examples`` and the test
suite); not used by the experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.analyze.lifecycle import Segment

__all__ = ["render_gantt"]


def render_gantt(
    segments: Sequence[Segment],
    width: int = 72,
    max_rows: int = 30,
) -> str:
    """Render ``segments`` as an ASCII Gantt chart.

    Parameters
    ----------
    segments:
        The server occupations to draw, in chronological order, as
        :attr:`~repro.obs.analyze.lifecycle.RunLifecycles.segments`
        holds them.
    width:
        Number of time buckets (characters) across.
    max_rows:
        Transactions beyond this limit are summarised in a footer instead
        of drawn (charts taller than a screen help no one).

    Each row is labelled with the transaction id; a ``#`` marks buckets
    in which the transaction held a server for any fraction of the
    bucket.  With multiple servers, overlapping rows are expected.
    """
    if not segments:
        raise SimulationError("cannot render an empty schedule")
    if width < 10:
        raise SimulationError(f"gantt width must be >= 10, got {width}")
    start = min(seg.start for seg in segments)
    end = max(seg.end for seg in segments)
    span = end - start
    if span <= 0:
        raise SimulationError("schedule has zero duration")
    bucket = span / width

    # One row per transaction, in the order they first held a server.
    rows: dict[int, list[Segment]] = {}
    for seg in segments:
        rows.setdefault(seg.txn_id, []).append(seg)
    shown = list(rows)[:max_rows]
    hidden = len(rows) - len(shown)

    label_width = max(len(str(tid)) for tid in shown) + 1
    lines = [
        f"time {start:g} .. {end:g}  ({bucket:g} per column)",
    ]
    for tid in shown:
        row = [" "] * width
        for seg in rows[tid]:
            first = int((seg.start - start) / bucket)
            last = int((seg.end - start) / bucket - 1e-12)
            for col in range(max(0, first), min(width - 1, last) + 1):
                row[col] = "#"
        lines.append(f"{tid:>{label_width}} |" + "".join(row) + "|")
    if hidden > 0:
        lines.append(f"... {hidden} more transactions not shown")
    return "\n".join(lines)
