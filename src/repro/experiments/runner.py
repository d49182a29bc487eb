"""Generic seeded sweep machinery.

One experiment setting = one :class:`~repro.workload.spec.WorkloadSpec`
plus one policy.  The runner generates a workload per seed, replays it
(resetting between policies so every policy sees the *same* arrival
trace, as in the authors' simulator), extracts a metric from each run and
averages over seeds.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.faults import FaultSpec, plan_faults
from repro.metrics.aggregates import MetricSeries, confidence_interval, mean
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.workload.generator import Workload, generate
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.snapshot import Checkpointer
    from repro.experiments.parallel import CellFailure
    from repro.obs.hooks import Instrument
    from repro.obs.jsonl import EventSink
    from repro.obs.profile import PhaseProfiler
    from repro.obs.streaming import StreamingRecorder

__all__ = [
    "run_policy_on",
    "run_policy_streaming",
    "mean_metric",
    "metric_spread",
    "utilization_sweep",
    "generate_workloads",
]


def generate_workloads(spec: WorkloadSpec, seeds: Iterable[int]) -> list[Workload]:
    """One workload per seed, ready for repeated replay."""
    return [generate(spec, seed) for seed in seeds]


def _replay(
    workload: Workload,
    policy_spec: PolicySpec,
    faults: FaultSpec | None,
    **options: object,
) -> SimulationResult:
    """The one run core: reset, plan faults, simulate.

    ``options`` go to :class:`~repro.sim.engine.Simulator` unchanged.
    """
    workload.reset()
    plan = None
    if faults is not None and not faults.is_null:
        plan = plan_faults(faults, workload.transactions)
    return Simulator(
        workload.transactions,
        policy_spec.make(),
        workflow_set=workload.workflow_set,
        faults=plan,
        **options,
    ).run()


def run_policy_on(
    workload: Workload,
    policy_spec: PolicySpec,
    instrument: "Instrument | None" = None,
    faults: FaultSpec | None = None,
    profiler: "PhaseProfiler | None" = None,
    checkpoint_every: int | None = None,
    checkpointer: "Checkpointer | None" = None,
) -> SimulationResult:
    """Replay ``workload`` under a fresh instance of ``policy_spec``.

    The workload is reset first, so call order between policies does not
    matter.  Pass an :class:`~repro.obs.hooks.Instrument` (e.g. a
    :class:`~repro.obs.recorder.Recorder`) to observe the run; attach a
    fresh recorder per run.  ``faults`` injects a deterministic
    :mod:`repro.faults` plan derived from the spec's own seed —
    independent of the workload seed, so the same fault schedule replays
    under every policy.  ``profiler`` attaches a
    :class:`~repro.obs.profile.PhaseProfiler` for per-phase hot-path
    attribution (observation-only; results are byte-identical with or
    without it).  ``checkpoint_every`` + ``checkpointer`` make the run
    crash-resilient (:mod:`repro.ckpt`); checkpointing is likewise
    observation-only.
    """
    return _replay(
        workload,
        policy_spec,
        faults,
        instrument=instrument,
        profiler=profiler,
        checkpoint_every=checkpoint_every,
        checkpointer=checkpointer,
    )


def run_policy_streaming(
    workload: Workload,
    policy_spec: PolicySpec,
    quantile_accuracy: float = 0.01,
    window: float | None = None,
    sink: "EventSink | None" = None,
    sample: float = 1.0,
    faults: FaultSpec | None = None,
    checkpoint_every: int | None = None,
    checkpoint_out: "str | None" = None,
    checkpoint_metadata: dict | None = None,
) -> "tuple[SimulationResult, StreamingRecorder]":
    """Replay ``workload`` in constant-memory streaming mode.

    Per-transaction record retention is off (the result answers every
    aggregate from a :class:`~repro.sim.results.StreamSummary`) and a
    :class:`~repro.obs.streaming.StreamingRecorder` rides along for
    tardiness/response quantiles, top-k culprits and — with ``window`` —
    tumbling-window time-series.  Returns ``(result, recorder)``;
    ``recorder.report()`` yields the quantile-bearing
    :class:`~repro.obs.summary.RunReport` and ``recorder.telemetry`` the
    mergeable :class:`~repro.obs.streaming.RunTelemetry`.

    ``checkpoint_every`` + ``checkpoint_out`` checkpoint the run to that
    path (:mod:`repro.ckpt`): the recorder's accumulators and — when
    ``sink`` is a JSONL writer — the log position ride in the same
    snapshot as the engine, so a killed run resumes byte-identically.
    """
    from repro.obs.streaming import StreamingRecorder

    recorder = StreamingRecorder(
        quantile_accuracy=quantile_accuracy,
        window=window,
        sink=sink,
        sample=sample,
    )
    checkpointer = None
    if checkpoint_out is not None:
        from repro.ckpt import Checkpointer

        checkpointer = Checkpointer(
            checkpoint_out,
            instrument=recorder,
            writer=sink if hasattr(sink, "ckpt_state") else None,
            metadata=checkpoint_metadata,
        )
    result = _replay(
        workload,
        policy_spec,
        faults,
        instrument=recorder,
        retain_records=False,
        checkpoint_every=checkpoint_every,
        checkpointer=checkpointer,
    )
    return result, recorder


def mean_metric(
    workloads: Sequence[Workload],
    policy_spec: PolicySpec,
    metric: str,
    faults: FaultSpec | None = None,
) -> float:
    """Average one named :class:`SimulationResult` attribute over seeds."""
    return mean(
        getattr(run_policy_on(w, policy_spec, faults=faults), metric)
        for w in workloads
    )


def metric_spread(
    workloads: Sequence[Workload],
    policy_spec: PolicySpec,
    metric: str,
) -> tuple[float, float, float]:
    """Mean plus a normal-approximation confidence interval over seeds.

    Returns ``(mean, low, high)``.  The paper plots plain 5-run means;
    the interval quantifies how much seed noise those means carry —
    worth checking before reading anything into a small gap between two
    policies.
    """
    values = [getattr(run_policy_on(w, policy_spec), metric) for w in workloads]
    low, high = confidence_interval(values)
    return mean(values), low, high


def utilization_sweep(
    base_spec: WorkloadSpec,
    policies: Sequence[PolicySpec],
    metric: str,
    config: ExperimentConfig,
    utilizations: Sequence[float] | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    failures: "list[CellFailure] | None" = None,
    fault_spec: FaultSpec | None = None,
    cell_timeout: float | None = None,
    resume: str | None = None,
) -> MetricSeries:
    """The workhorse behind Figures 8-15: metric vs utilization per policy.

    Parameters
    ----------
    base_spec:
        Workload template; its ``utilization`` and ``n_transactions`` are
        overridden by the sweep.
    policies:
        Policies to compare; one series per policy (keyed by display
        label).
    metric:
        Attribute name on :class:`~repro.sim.results.SimulationResult`
        (e.g. ``"average_tardiness"``).
    config:
        Scale (transaction count, seeds, default utilization grid).
    utilizations:
        Overrides ``config.utilizations`` (Figures 8/9 use half grids).
    progress:
        Optional callable receiving one human-readable line per setting.
    jobs:
        Worker processes; ``1`` (the default) runs the sweep inline,
        ``> 1`` fans the (utilization × seed × policy) grid out through
        :mod:`repro.experiments.parallel`.  Results are byte-identical
        either way.
    failures:
        Opt-in cell-failure capture for the parallel harness: pass a
        list to collect :class:`~repro.experiments.parallel.CellFailure`
        entries instead of raising
        :class:`~repro.errors.SweepError`.
    fault_spec:
        Optional :class:`~repro.faults.FaultSpec`; the same seeded fault
        schedule is injected per (utilization, seed) workload so the
        policies compete under identical adversity.
    cell_timeout:
        Wall-clock seconds of the no-progress watchdog; forces the pool
        path (a hung inline cell could never be interrupted).
    resume:
        Path of a :class:`~repro.ckpt.sweep.SweepManifest`: completed
        cells are persisted as the sweep goes and skipped on restart
        (forces the grid path; the merged series stays byte-identical
        to a fresh ``jobs=1`` run).
    """
    xs = list(utilizations if utilizations is not None else config.utilizations)
    if (
        jobs == 1
        and failures is None
        and cell_timeout is None
        and resume is None
    ):
        series = MetricSeries(x_label="utilization", x=xs, metric=metric)
        values: dict[str, list[float]] = {p.display: [] for p in policies}
        for util in xs:
            spec = dataclasses.replace(
                base_spec,
                utilization=util,
                n_transactions=config.n_transactions,
            )
            workloads = generate_workloads(spec, config.seeds)
            for policy in policies:
                value = mean_metric(workloads, policy, metric, faults=fault_spec)
                values[policy.display].append(value)
                if progress is not None:
                    progress(
                        f"U={util:<4} {policy.display:<10} {metric}={value:.3f}"
                    )
        for policy in policies:
            series.add(policy.display, values[policy.display])
        return series

    from repro.experiments.parallel import SweepColumn, grid_sweep

    columns = [
        SweepColumn(
            x=util,
            spec=dataclasses.replace(
                base_spec,
                utilization=util,
                n_transactions=config.n_transactions,
            ),
        )
        for util in xs
    ]
    return grid_sweep(
        columns,
        policies,
        metric,
        config.seeds,
        x_label="utilization",
        jobs=jobs,
        progress=progress,
        failures=failures,
        fault_spec=fault_spec,
        cell_timeout=cell_timeout,
        resume=resume,
    )
