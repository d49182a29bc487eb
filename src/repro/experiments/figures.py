"""Per-figure experiment entry points (Section IV).

Every public function regenerates one figure of the paper's evaluation
and returns a :class:`~repro.metrics.aggregates.MetricSeries` holding the
same series the paper plots.  All functions accept an
:class:`~repro.experiments.config.ExperimentConfig` so the test-suite can
run them at reduced scale; the defaults are the paper's (1000
transactions, 5 seeds).

===========  ==========================================================
Figure 8     avg tardiness, low utilization, 5 transaction-level policies
Figure 9     avg tardiness, high utilization, same policies
Figure 10    avg tardiness of ASETS* normalized to EDF / SRPT, k_max = 3
Figure 11    same, k_max = 1
Figure 12    same, k_max = 2
Figure 13    same, k_max = 4
(§IV-C)      alpha sweep: crossover shift with length-distribution skew
Figure 14    workflow level: ASETS* vs Ready, avg tardiness
Figure 15    general case: ASETS* vs EDF vs HDF, avg weighted tardiness
Figure 16    balance-aware: max weighted tardiness vs activation rate
Figure 17    balance-aware: avg weighted tardiness vs activation rate
===========  ==========================================================
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Sequence

from repro.experiments.config import (
    COUNT_ACTIVATION_RATES,
    GENERAL_CASE_POLICIES,
    HIGH_UTILIZATIONS,
    LOW_UTILIZATIONS,
    NORMALIZATION_POLICIES,
    TIME_ACTIVATION_RATES,
    TRANSACTION_LEVEL_POLICIES,
    WORKFLOW_LEVEL_POLICIES,
    ExperimentConfig,
    PolicySpec,
)
from repro.experiments.runner import SweepColumn, grid_sweep, utilization_sweep
from repro.metrics.aggregates import MetricSeries
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import CellFailure

__all__ = [
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "alpha_sweep",
    "normalized_tardiness",
    "balance_aware_sweep",
]

#: Independent, unweighted workload of Sections IV-C (Table I defaults).
_TRANSACTION_LEVEL_SPEC = WorkloadSpec(zipf_alpha=0.5, k_max=3.0)

#: Figure 14's workflow workload: chains of length <= 5, membership 1.
_WORKFLOW_LEVEL_SPEC = WorkloadSpec(
    with_workflows=True,
    max_workflow_length=5,
    max_workflows_per_txn=1,
)

#: The general case (Figures 15-17): workflows plus uniform [1,10] weights.
_GENERAL_CASE_SPEC = dataclasses.replace(_WORKFLOW_LEVEL_SPEC, weighted=True)

#: Utilization at which the balance-aware trade-off is evaluated.  The
#: paper does not state its operating point for Figures 16-17; starvation
#: (the phenomenon the aging scheme addresses) only materialises under
#: overload, and the reported trade-off reproduces at full utilization.
_BALANCE_UTILIZATION = 1.0


def figure8(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Average tardiness under low system utilization (Figure 8)."""
    return utilization_sweep(
        _TRANSACTION_LEVEL_SPEC,
        TRANSACTION_LEVEL_POLICIES,
        "average_tardiness",
        config,
        utilizations=LOW_UTILIZATIONS,
        progress=progress,
        jobs=jobs,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )


def figure9(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Average tardiness under high system utilization (Figure 9)."""
    return utilization_sweep(
        _TRANSACTION_LEVEL_SPEC,
        TRANSACTION_LEVEL_POLICIES,
        "average_tardiness",
        config,
        utilizations=HIGH_UTILIZATIONS,
        progress=progress,
        jobs=jobs,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )


def normalized_tardiness(
    k_max: float,
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """ASETS* average tardiness normalized to EDF and to SRPT.

    The common machinery behind Figures 10-13: sweep the full utilization
    grid with EDF, SRPT and ASETS* at the given ``k_max``, then divide the
    ASETS* series by each baseline.  The returned series holds
    ``ASETS*/EDF`` and ``ASETS*/SRPT``; the raw sweep is attached as the
    ``raw`` attribute for crossover inspection.
    """
    spec = _TRANSACTION_LEVEL_SPEC.with_k_max(k_max)
    raw = utilization_sweep(
        spec,
        NORMALIZATION_POLICIES,
        "average_tardiness",
        config,
        progress=progress,
        jobs=jobs,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )
    out = MetricSeries(
        x_label="utilization",
        x=list(raw.x),
        metric=f"average_tardiness normalized (k_max={k_max:g})",
    )
    asets = raw.get("ASETS*")
    for baseline in ("EDF", "SRPT"):
        base = raw.get(baseline)
        out.add(
            f"ASETS*/{baseline}",
            [a / b if b else (1.0 if a == 0 else float("inf")) for a, b in zip(asets, base)],
        )
    out.raw = raw
    return out


def figure10(
    config: ExperimentConfig = ExperimentConfig(),
    progress=None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Normalized average tardiness at the default k_max = 3 (Figure 10)."""
    return normalized_tardiness(3.0, config, progress, jobs=jobs, failures=failures, cell_timeout=cell_timeout, resume=resume)


def figure11(
    config: ExperimentConfig = ExperimentConfig(),
    progress=None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Normalized average tardiness at k_max = 1 (Figure 11)."""
    return normalized_tardiness(1.0, config, progress, jobs=jobs, failures=failures, cell_timeout=cell_timeout, resume=resume)


def figure12(
    config: ExperimentConfig = ExperimentConfig(),
    progress=None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Normalized average tardiness at k_max = 2 (Figure 12)."""
    return normalized_tardiness(2.0, config, progress, jobs=jobs, failures=failures, cell_timeout=cell_timeout, resume=resume)


def figure13(
    config: ExperimentConfig = ExperimentConfig(),
    progress=None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Normalized average tardiness at k_max = 4 (Figure 13)."""
    return normalized_tardiness(4.0, config, progress, jobs=jobs, failures=failures, cell_timeout=cell_timeout, resume=resume)


def alpha_sweep(
    alphas: Sequence[float] = (0.2, 0.5, 0.9, 1.2),
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> dict[float, MetricSeries]:
    """Length-distribution skew study (Section IV-C, plots omitted there).

    For each Zipf :math:`\\alpha`, sweep EDF/SRPT/ASETS* over the full
    utilization grid at :math:`k_{max} = 3`.  The paper's observation:
    the more skewed the lengths, the earlier (lower utilization) the
    EDF/SRPT crossover.  Use ``MetricSeries.crossover("EDF", "SRPT")`` on
    the returned series to read the crossover points.  ``resume`` keeps
    one manifest per alpha (``{path}.alpha-{alpha:g}``): each alpha is a
    distinct grid with its own fingerprint.
    """
    out: dict[float, MetricSeries] = {}
    for alpha in alphas:
        spec = _TRANSACTION_LEVEL_SPEC.with_alpha(alpha)
        out[alpha] = utilization_sweep(
            spec,
            NORMALIZATION_POLICIES,
            "average_tardiness",
            config,
            progress=progress,
            jobs=jobs,
            failures=failures,
            cell_timeout=cell_timeout,
            resume=(
                f"{resume}.alpha-{alpha:g}" if resume is not None else None
            ),
        )
    return out


def figure14(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Workflow level: ASETS* vs the Ready baseline (Figure 14).

    Unweighted dependent workload, maximum workflow length 5, maximum
    number of workflows per transaction 1, as stated in Section IV-D.
    """
    return utilization_sweep(
        _WORKFLOW_LEVEL_SPEC,
        WORKFLOW_LEVEL_POLICIES,
        "average_tardiness",
        config,
        progress=progress,
        jobs=jobs,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )


def figure15(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """The general case: ASETS* vs EDF vs HDF on weighted tardiness (Figure 15)."""
    return utilization_sweep(
        _GENERAL_CASE_SPEC,
        GENERAL_CASE_POLICIES,
        "average_weighted_tardiness",
        config,
        progress=progress,
        jobs=jobs,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )


def balance_aware_sweep(
    metric: str,
    rates: Sequence[float],
    rate_kind: str = "time",
    config: ExperimentConfig = ExperimentConfig(),
    utilization: float = _BALANCE_UTILIZATION,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Balance-aware ASETS* against plain ASETS* over activation rates.

    The shared machinery behind Figures 16-17 (and their count-based
    twins): at a fixed utilization, sweep the activation rate and compare
    ``metric`` of balance-aware ASETS* with the flat ASETS* reference.
    The grid is one utilization column whose policies are the reference
    followed by one balance-aware policy per rate, so every workload is
    generated once; its seed means are then laid out over the rates.
    ``resume`` persists completed cells to a
    :class:`~repro.ckpt.sweep.SweepManifest` and skips them on restart.
    """
    if rate_kind not in ("time", "count"):
        raise ValueError(f"rate_kind must be 'time' or 'count', got {rate_kind!r}")
    spec = dataclasses.replace(
        _GENERAL_CASE_SPEC,
        utilization=utilization,
        n_transactions=config.n_transactions,
    )
    policies = [PolicySpec.of("asets-star", "ASETS*")] + [
        PolicySpec.of(
            "balance-aware",
            "ASETS* (balance-aware)",
            **{f"{rate_kind}_rate": rate},
        )
        for rate in rates
    ]
    grid = grid_sweep(
        [SweepColumn(x=utilization, spec=spec)],
        policies,
        metric,
        config.seeds,
        x_label="utilization",
        jobs=jobs,
        progress=progress,
        failures=failures,
        cell_timeout=cell_timeout,
        resume=resume,
    )
    baseline, *balanced = (values[0] for values in grid.series.values())
    series = MetricSeries(
        x_label=f"{rate_kind}-based activation rate",
        x=list(rates),
        metric=metric,
    )
    series.add("ASETS*", [baseline] * len(rates))
    series.add("ASETS* (balance-aware)", balanced)
    return series


def figure16(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Worst case: maximum weighted tardiness vs time-based rate (Figure 16)."""
    return balance_aware_sweep(
        "max_weighted_tardiness", TIME_ACTIVATION_RATES, "time", config,
        progress=progress, jobs=jobs, failures=failures,
        cell_timeout=cell_timeout, resume=resume,
    )


def figure17(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Average case: average weighted tardiness vs time-based rate (Figure 17)."""
    return balance_aware_sweep(
        "average_weighted_tardiness", TIME_ACTIVATION_RATES, "time", config,
        progress=progress, jobs=jobs, failures=failures,
        cell_timeout=cell_timeout, resume=resume,
    )


def figure16_count_based(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Count-based twin of Figure 16 ("same behavior", Section IV-F)."""
    return balance_aware_sweep(
        "max_weighted_tardiness", COUNT_ACTIVATION_RATES, "count", config,
        progress=progress, jobs=jobs, failures=failures,
        cell_timeout=cell_timeout, resume=resume,
    )


def figure17_count_based(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """Count-based twin of Figure 17."""
    return balance_aware_sweep(
        "average_weighted_tardiness", COUNT_ACTIVATION_RATES, "count", config,
        progress=progress, jobs=jobs, failures=failures,
        cell_timeout=cell_timeout, resume=resume,
    )
