"""Multi-run aggregation, distributions and reporting.

Normalisation helpers for Figures 10-13, the seeded multi-run averaging
("the averages of five runs for each experiment setting"), tardiness
percentiles, histograms and the Gini coefficient, and table/chart
rendering.

The per-run metrics themselves — Definitions 3-5 (tardiness, average
tardiness, average weighted tardiness) and the worst-case metric of
Section IV-F (maximum weighted tardiness) — are defined once, in
:mod:`repro.sim.results`: a record's ``tardiness`` and
``weighted_tardiness`` on :class:`~repro.sim.results.TransactionRecord`,
their aggregates on :class:`~repro.sim.results.SimulationResult`.  To
aggregate a subset of a run's records (say, only the gold-tier
transactions), build ``SimulationResult(name, subset)`` or
``StreamSummary.from_records(subset)``.
"""

from repro.metrics.aggregates import (
    MetricSeries,
    mean,
    normalized,
    safe_ratio,
    confidence_interval,
)
from repro.metrics.report import format_table, format_series
from repro.metrics.distributions import (
    percentile,
    tardiness_percentile,
    weighted_tardiness_percentile,
    tardiness_histogram,
    gini,
)
from repro.metrics.charts import render_chart

__all__ = [
    "MetricSeries",
    "mean",
    "normalized",
    "safe_ratio",
    "confidence_interval",
    "format_table",
    "format_series",
    "percentile",
    "tardiness_percentile",
    "weighted_tardiness_percentile",
    "tardiness_histogram",
    "gini",
    "render_chart",
]
