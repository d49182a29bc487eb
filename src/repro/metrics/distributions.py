"""Distributional views of tardiness: percentiles and histograms.

The paper reports means and maxima; real deployments care about the tail
in between (p95/p99 latency SLOs).  These helpers extend the metric
vocabulary without touching the core definitions, and power the
tail-analysis benchmark.  They read each record's own ``tardiness`` and
``weighted_tardiness`` (:class:`~repro.sim.results.TransactionRecord`)
over **completed** records only: the population of Definition 4's
averages and of the streaming tardiness sketch.  An aborted or shed
record is an outcome count, not a zero sample; without faults every
record is completed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import TransactionRecord

__all__ = [
    "percentile",
    "tardiness_percentile",
    "weighted_tardiness_percentile",
    "tardiness_histogram",
    "gini",
]


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Matches numpy's default ("linear") method, implemented here to keep
    the core dependency-free.
    """
    data = sorted(values)
    if not data:
        raise SimulationError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise SimulationError(f"percentile q must be in [0, 100], got {q}")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac


def _completed(
    records: Iterable[TransactionRecord],
) -> Iterator[TransactionRecord]:
    return (r for r in records if r.outcome == "completed")


def tardiness_percentile(
    records: Iterable[TransactionRecord], q: float
) -> float:
    """Percentile of the completed transactions' tardiness."""
    return percentile((r.tardiness for r in _completed(records)), q)


def weighted_tardiness_percentile(
    records: Iterable[TransactionRecord], q: float
) -> float:
    """Percentile of the completed transactions' *weighted* tardiness."""
    return percentile((r.weighted_tardiness for r in _completed(records)), q)


def tardiness_histogram(
    records: Iterable[TransactionRecord],
    bin_edges: Sequence[float],
) -> list[int]:
    """Counts of the completed transactions' tardiness values per bin.

    ``bin_edges`` must be strictly increasing; the result has
    ``len(bin_edges) + 1`` entries — the first counts values below the
    first edge, the last values at or above the last edge.
    """
    edges = list(bin_edges)
    if not edges:
        raise SimulationError("histogram needs at least one bin edge")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise SimulationError(f"bin edges must be increasing: {edges}")
    counts = [0] * (len(edges) + 1)
    for record in _completed(records):
        value = record.tardiness
        index = 0
        while index < len(edges) and value >= edges[index]:
            index += 1
        counts[index] += 1
    return counts


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative distribution.

    0 = perfectly even tardiness, 1 = all tardiness concentrated on one
    transaction.  A compact fairness/starvation indicator: SRPT-style
    policies trade a lower mean for a higher Gini, which is exactly the
    imbalance the balance-aware variant attacks.
    """
    data = sorted(values)
    if not data:
        raise SimulationError("gini of empty sequence")
    if any(v < 0 for v in data):
        raise SimulationError("gini requires non-negative values")
    total = sum(data)
    if total == 0:
        return 0.0
    n = len(data)
    cumulative = 0.0
    for i, v in enumerate(data, start=1):
        cumulative += i * v
    return (2 * cumulative) / (n * total) - (n + 1) / n
