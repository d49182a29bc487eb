"""Experiment configuration: policy specs and parameter grids.

The defaults mirror Section IV-A: 1000 transactions per run, metrics
averaged over five seeded runs, utilization swept from 0.1 to 1.0, Zipf
:math:`\\alpha = 0.5`, :math:`k_{max} = 3`.  Every figure entry point
accepts an :class:`ExperimentConfig` so tests can shrink the workload
while benchmarks run at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.errors import ExperimentError
from repro.policies.base import Scheduler
from repro.policies.registry import make_policy

__all__ = [
    "PolicySpec",
    "ExperimentConfig",
    "DEFAULT_JOBS",
    "DEFAULT_SEEDS",
    "DEFAULT_UTILIZATIONS",
    "LOW_UTILIZATIONS",
    "HIGH_UTILIZATIONS",
    "TIME_ACTIVATION_RATES",
    "COUNT_ACTIVATION_RATES",
    "DEFAULT_PROBE_UTILIZATION",
]

#: Five runs per setting, as in Section IV-A.
DEFAULT_SEEDS: tuple[int, ...] = (11, 23, 37, 41, 53)

#: Default worker count for the sweeps: 1 = in this process, no pool.
#: ``--jobs 0`` on the CLI means "one worker per core"
#: (:func:`repro.experiments.parallel.resolve_jobs`).
DEFAULT_JOBS: int = 1

#: The paper's utilization grid, 0.1 ... 1.0.
DEFAULT_UTILIZATIONS: tuple[float, ...] = tuple(
    round(0.1 * i, 1) for i in range(1, 11)
)

#: Figure 8 zooms into the low-utilization half ...
LOW_UTILIZATIONS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)

#: ... and Figure 9 into the high-utilization half.
HIGH_UTILIZATIONS: tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 1.0)

#: Section IV-F: time-based activation rates 0.002 ... 0.01.
TIME_ACTIVATION_RATES: tuple[float, ...] = (0.002, 0.004, 0.006, 0.008, 0.01)

#: Section IV-F: count-based activation rates 0.02 ... 0.1.
COUNT_ACTIVATION_RATES: tuple[float, ...] = (0.02, 0.04, 0.06, 0.08, 0.1)

#: Default utilization for single instrumented runs (``repro-experiments
#: run``): high enough that preemption churn and backlog are visible.
DEFAULT_PROBE_UTILIZATION: float = 0.9


@dataclass(frozen=True, slots=True)
class PolicySpec:
    """A named, reproducible policy configuration.

    ``make()`` returns a *fresh* scheduler instance — policies hold
    per-run state, so one instance must never serve two runs.
    """

    name: str
    label: str = ""
    kwargs: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def of(name: str, label: str = "", **kwargs: object) -> "PolicySpec":
        return PolicySpec(
            name=name,
            label=label or name,
            kwargs=tuple(sorted(kwargs.items())),
        )

    def make(self) -> Scheduler:
        return make_policy(self.name, **dict(self.kwargs))

    @property
    def display(self) -> str:
        return self.label or self.name


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Scale knobs shared by every figure entry point."""

    n_transactions: int = 1000
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    utilizations: tuple[float, ...] = DEFAULT_UTILIZATIONS

    def __post_init__(self) -> None:
        if self.n_transactions < 1:
            raise ExperimentError("n_transactions must be >= 1")
        if not self.seeds:
            raise ExperimentError("need at least one seed")
        if not self.utilizations:
            raise ExperimentError("need at least one utilization")

    def scaled(self, n_transactions: int, n_seeds: int | None = None) -> "ExperimentConfig":
        """A smaller copy for tests (fewer transactions / seeds)."""
        seeds = self.seeds[: n_seeds or len(self.seeds)]
        return replace(self, n_transactions=n_transactions, seeds=seeds)


#: The five transaction-level policies of Figures 8-9.
TRANSACTION_LEVEL_POLICIES: tuple[PolicySpec, ...] = (
    PolicySpec.of("fcfs", "FCFS"),
    PolicySpec.of("ls", "LS"),
    PolicySpec.of("edf", "EDF"),
    PolicySpec.of("srpt", "SRPT"),
    PolicySpec.of("asets", "ASETS*"),
)

#: The trio whose normalized ratios make up Figures 10-13.
NORMALIZATION_POLICIES: tuple[PolicySpec, ...] = (
    PolicySpec.of("edf", "EDF"),
    PolicySpec.of("srpt", "SRPT"),
    PolicySpec.of("asets", "ASETS*"),
)

#: Figure 14: workflow-level ASETS* against the Ready baseline.
WORKFLOW_LEVEL_POLICIES: tuple[PolicySpec, ...] = (
    PolicySpec.of("ready", "Ready"),
    PolicySpec.of("asets-star", "ASETS*"),
)

#: Figure 15: the weighted general case.
GENERAL_CASE_POLICIES: tuple[PolicySpec, ...] = (
    PolicySpec.of("edf", "EDF"),
    PolicySpec.of("hdf", "HDF"),
    PolicySpec.of("asets-star", "ASETS*"),
)


def policy_specs_by_label(
    specs: tuple[PolicySpec, ...]
) -> Mapping[str, PolicySpec]:
    return {spec.display: spec for spec in specs}
