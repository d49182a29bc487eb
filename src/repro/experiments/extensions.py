"""Extension experiments beyond the paper's evaluation.

Three studies the paper motivates but does not run:

* :func:`estimation_robustness` — §II-A assumes profile-based length
  estimates; how do the length-aware policies degrade as estimates get
  worse?
* :func:`multiserver_sweep` — the conclusion claims ASETS* applies to
  any real-time system; does its dominance survive parallel servers?
* :func:`tail_analysis` — the paper reports means and maxima; what do
  the tails (p95/p99) and the tardiness *concentration* (Gini) look like
  per policy?  This quantifies the starvation story behind §III-D.

Each function returns a :class:`~repro.metrics.aggregates.MetricSeries`
and is exposed both through the CLI (``python -m repro.experiments
ext-estimation`` etc.) and the benchmark suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import SweepColumn, generate_workloads, grid_sweep
from repro.metrics.aggregates import MetricSeries, mean
from repro.metrics.distributions import gini, tardiness_percentile
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import CellFailure

__all__ = [
    "estimation_robustness",
    "multiserver_sweep",
    "tail_analysis",
    "format_tail_table",
    "ESTIMATION_ERRORS",
    "SERVER_COUNTS",
    "TAIL_STATISTICS",
]

#: Row labels for :func:`tail_analysis` output.
TAIL_STATISTICS: tuple[str, ...] = ("mean", "p95", "p99", "max", "gini")

#: Relative length-estimation errors swept by estimation_robustness.
ESTIMATION_ERRORS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Server counts swept by multiserver_sweep.
SERVER_COUNTS: tuple[int, ...] = (1, 2, 4)

_LENGTH_AWARE_POLICIES: tuple[PolicySpec, ...] = (
    PolicySpec.of("edf", "EDF"),
    PolicySpec.of("srpt", "SRPT"),
    PolicySpec.of("asets", "ASETS"),
)


def estimation_robustness(
    config: ExperimentConfig = ExperimentConfig(),
    utilization: float = 0.8,
    errors: Sequence[float] = ESTIMATION_ERRORS,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Average tardiness vs. maximum relative length-estimation error.

    EDF ignores lengths and stays flat by construction; SRPT and ASETS
    run on the corrupted estimates.  True lengths, deadlines and offered
    load are identical across error levels (paired comparison).
    """
    columns = [
        SweepColumn(
            x=error,
            spec=WorkloadSpec(
                n_transactions=config.n_transactions,
                utilization=utilization,
                length_estimate_error=error,
            ),
        )
        for error in errors
    ]
    return grid_sweep(
        columns,
        _LENGTH_AWARE_POLICIES,
        "average_tardiness",
        config.seeds,
        x_label="max relative estimation error",
        jobs=jobs,
        progress=progress,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )


def multiserver_sweep(
    config: ExperimentConfig = ExperimentConfig(),
    per_server_utilization: float = 0.8,
    server_counts: Sequence[int] = SERVER_COUNTS,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Average tardiness vs. server count at constant per-server load."""
    columns = [
        SweepColumn(
            x=float(m),
            spec=WorkloadSpec(
                n_transactions=config.n_transactions,
                utilization=per_server_utilization * m,
            ),
            servers=m,
        )
        for m in server_counts
    ]
    return grid_sweep(
        columns,
        _LENGTH_AWARE_POLICIES,
        "average_tardiness",
        config.seeds,
        x_label="servers",
        jobs=jobs,
        progress=progress,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )


def tail_analysis(
    config: ExperimentConfig = ExperimentConfig(),
    utilization: float = 0.9,
    policies: Sequence[PolicySpec] = (
        PolicySpec.of("edf", "EDF"),
        PolicySpec.of("srpt", "SRPT"),
        PolicySpec.of("asets", "ASETS"),
        PolicySpec.of("ls", "LS"),
    ),
    progress: Callable[[str], None] | None = None,
) -> MetricSeries:
    """Tardiness distribution per policy: mean, p95, p99, max and Gini.

    Returned as a :class:`MetricSeries` whose "x axis" enumerates the
    statistics (one column per policy), which renders naturally as the
    table the benchmark prints.  The Gini coefficient captures how
    *concentrated* tardiness is: SRPT buys its low mean with a much more
    unequal distribution — the starvation §III-D addresses.
    """
    spec = WorkloadSpec(
        n_transactions=config.n_transactions, utilization=utilization
    )
    workloads = generate_workloads(spec, config.seeds)
    stats = TAIL_STATISTICS
    series = MetricSeries(
        x_label="statistic",
        x=list(range(len(stats))),
        metric=f"tardiness distribution at U={utilization}",
    )
    for policy in policies:
        per_stat = {name: [] for name in stats}
        for w in workloads:
            # Looked up on the module, like every sweep cell, so a wrapper
            # installed on runner.run_policy_on sees this cell too.
            result = runner.run_policy_on(w, policy)
            values = [r.tardiness for r in result.records]
            per_stat["mean"].append(result.average_tardiness)
            per_stat["p95"].append(tardiness_percentile(result.records, 95))
            per_stat["p99"].append(tardiness_percentile(result.records, 99))
            per_stat["max"].append(result.max_tardiness)
            per_stat["gini"].append(gini(values))
        series.add(policy.display, [mean(per_stat[name]) for name in stats])
        if progress is not None:
            progress(f"{policy.display}: done")
    return series


def format_tail_table(series: MetricSeries) -> str:
    """Render :func:`tail_analysis` output with named statistic rows."""
    from repro.metrics.report import format_table

    headers = ["statistic"] + list(series.series)
    rows = [
        [stat] + [series.series[name][i] for name in series.series]
        for i, stat in enumerate(TAIL_STATISTICS)
    ]
    return format_table(headers, rows)
