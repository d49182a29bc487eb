"""Tardiness metrics over completed transactions (Definitions 3-5).

These free functions operate on any iterable of objects exposing
``finish``, ``deadline`` and ``weight`` attributes —
:class:`~repro.sim.results.TransactionRecord` in practice — so they can be
applied to filtered subsets (e.g. only gold-tier transactions in the
examples) as well as to whole runs.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

from repro.errors import SimulationError

__all__ = [
    "tardiness",
    "average_tardiness",
    "average_weighted_tardiness",
    "max_tardiness",
    "max_weighted_tardiness",
    "deadline_miss_ratio",
    "total_tardiness",
]


class CompletedLike(Protocol):
    """Anything with a finish time, a deadline and a weight.

    The members are read-only, so immutable records match too.
    """

    @property
    def finish(self) -> float: ...

    @property
    def deadline(self) -> float: ...

    @property
    def weight(self) -> float: ...


def tardiness(record: CompletedLike) -> float:
    """Definition 3: :math:`t_i = \\max(0, f_i - d_i)`."""
    return max(0.0, record.finish - record.deadline)


def _materialize(records: Iterable[CompletedLike]) -> Sequence[CompletedLike]:
    seq = list(records)
    if not seq:
        raise SimulationError("metric over an empty record set")
    return seq


def average_tardiness(records: Iterable[CompletedLike]) -> float:
    """Definition 4: :math:`\\frac{1}{N} \\sum_i t_i`."""
    seq = _materialize(records)
    return sum(tardiness(r) for r in seq) / len(seq)


def average_weighted_tardiness(records: Iterable[CompletedLike]) -> float:
    """Definition 5: :math:`\\frac{1}{N} \\sum_i t_i w_i`."""
    seq = _materialize(records)
    return sum(tardiness(r) * r.weight for r in seq) / len(seq)


def max_tardiness(records: Iterable[CompletedLike]) -> float:
    """Worst-case unweighted tardiness."""
    return max(tardiness(r) for r in _materialize(records))


def max_weighted_tardiness(records: Iterable[CompletedLike]) -> float:
    """Worst-case weighted tardiness (the metric of Figure 16)."""
    return max(tardiness(r) * r.weight for r in _materialize(records))


def deadline_miss_ratio(records: Iterable[CompletedLike]) -> float:
    """Fraction of transactions with :math:`f_i > d_i`."""
    seq = _materialize(records)
    return sum(1 for r in seq if r.finish > r.deadline) / len(seq)


def total_tardiness(records: Iterable[CompletedLike]) -> float:
    """Sum of tardiness (the objective the greedy rule reasons about)."""
    return sum(tardiness(r) for r in _materialize(records))
