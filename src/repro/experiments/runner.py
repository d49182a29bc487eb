"""Generic seeded sweep machinery.

One experiment setting = one :class:`~repro.workload.spec.WorkloadSpec`
plus one policy.  The runner generates a workload per seed, replays it
(resetting between policies so every policy sees the *same* arrival
trace, as in the authors' simulator), extracts a metric from each run and
averages over seeds.

Every sweep of the evaluation is one shape — a (column × seed × policy)
grid whose seeds are averaged — and runs through :func:`grid_sweep`;
every cell of it runs through :func:`run_policy_on`, in this process or
in a :mod:`repro.experiments.parallel` worker.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.errors import CheckpointError, SweepError
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.parallel import (
    CellFailure,
    GroupResult,
    run_cell_groups,
    runs_in_process,
)
from repro.faults import FaultSpec, plan_faults
from repro.metrics.aggregates import MetricSeries, confidence_interval, mean
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.workload.generator import Workload, generate
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.snapshot import Checkpointer
    from repro.obs.hooks import Instrument
    from repro.obs.jsonl import EventSink
    from repro.obs.profile import PhaseProfiler, ProfileSnapshot
    from repro.obs.streaming import RunTelemetry, StreamingRecorder

__all__ = [
    "CellGroup",
    "SweepColumn",
    "TelemetrySpec",
    "run_policy_on",
    "run_policy_streaming",
    "mean_metric",
    "metric_spread",
    "grid_sweep",
    "utilization_sweep",
    "generate_workloads",
]

#: Type of the optional per-line progress callback shared by the sweeps.
ProgressFn = Callable[[str], None]


def generate_workloads(spec: WorkloadSpec, seeds: Iterable[int]) -> list[Workload]:
    """One workload per seed, ready for repeated replay."""
    return [generate(spec, seed) for seed in seeds]


def _replay(
    workload: Workload,
    policy_spec: PolicySpec,
    faults: FaultSpec | None,
    servers: int = 1,
    **options: object,
) -> SimulationResult:
    """The one run core: reset, plan faults, simulate.

    ``options`` go to :class:`~repro.sim.engine.Simulator` unchanged.
    """
    workload.reset()
    plan = None
    if faults is not None and not faults.is_null:
        plan = plan_faults(faults, workload.transactions, servers=servers)
    return Simulator(
        workload.transactions,
        policy_spec.make(),
        workflow_set=workload.workflow_set,
        servers=servers,
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
    servers: int = 1,
    retain_records: bool = True,
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
    observation-only.  ``servers`` runs the workload on that many
    parallel servers (the fault plan is drawn for the same count);
    ``retain_records=False`` keeps no per-transaction records, and the
    result answers its aggregates from a
    :class:`~repro.sim.results.StreamSummary`.
    """
    return _replay(
        workload,
        policy_spec,
        faults,
        servers,
        instrument=instrument,
        profiler=profiler,
        checkpoint_every=checkpoint_every,
        checkpointer=checkpointer,
        retain_records=retain_records,
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


class SweepColumn(NamedTuple):
    """One x-axis position of a grid sweep: its spec and server count."""

    x: float
    spec: WorkloadSpec
    servers: int = 1


class TelemetrySpec(NamedTuple):
    """Per-cell streaming-telemetry request, shipped with every group.

    Every cell then runs with per-txn retention off and a
    :class:`~repro.obs.streaming.StreamingRecorder`, whose
    :class:`~repro.obs.streaming.RunTelemetry` rides home in the
    :class:`~repro.experiments.parallel.GroupResult`.
    """

    quantile_accuracy: float = 0.01
    window: float | None = None
    topk: int = 16


class CellGroup(NamedTuple):
    """Pending cells of one sweep column, run as one unit of work.

    ``cells`` lists ``(policy position, seed)`` pairs, policy-major;
    with the ``column`` index each addresses one grid cell,
    independent of where and when it runs.  ``policies`` is the grid's
    whole policy list.  ``fault_spec`` is expanded into a plan per cell
    (specs are small and picklable); ``telemetry`` and ``profile`` ask
    every cell for its streaming telemetry and its
    :class:`~repro.obs.profile.ProfileSnapshot`.
    """

    column: int
    x: float
    spec: WorkloadSpec
    policies: tuple[PolicySpec, ...]
    cells: tuple[tuple[int, int], ...]
    metric: str
    servers: int = 1
    fault_spec: FaultSpec | None = None
    telemetry: TelemetrySpec | None = None
    profile: bool = False


def _traceback() -> str:
    """The handled exception's traceback.

    ``traceback`` is imported only when a cell fails, so a clean sweep's
    start-up never pays for it.
    """
    from traceback import format_exc

    return format_exc()


def _run_cell(
    group: CellGroup, workload: Workload, policy: PolicySpec
) -> "tuple[float, RunTelemetry | None, ProfileSnapshot | None]":
    """One cell: its metric value, telemetry and profile as asked."""
    recorder = profiler = None
    if group.telemetry is not None:
        from repro.obs.streaming import StreamingRecorder

        recorder = StreamingRecorder(
            quantile_accuracy=group.telemetry.quantile_accuracy,
            window=group.telemetry.window,
            topk=group.telemetry.topk,
        )
    if group.profile:
        from repro.obs.profile import PhaseProfiler

        profiler = PhaseProfiler()
    result = run_policy_on(
        workload,
        policy,
        instrument=recorder,
        faults=group.fault_spec,
        profiler=profiler,
        servers=group.servers,
        retain_records=recorder is None,
    )
    return (
        float(getattr(result, group.metric)),
        recorder.telemetry if recorder is not None else None,
        profiler.snapshot(policy.display) if profiler is not None else None,
    )


def _run_group(group: CellGroup) -> GroupResult:
    """The cell function: generate each seed's workload once, then run
    every cell through :func:`run_policy_on` in ``group.cells`` order.

    A raising cell — or a failing generation, which fails every cell of
    its seed — becomes a :class:`~repro.experiments.parallel.CellFailure`.
    Module-level (and :class:`CellGroup` picklable) so a process pool
    can ship it.
    """
    workloads: dict[int, Workload] = {}
    broken: dict[int, tuple[str, str]] = {}
    for seed in dict.fromkeys(seed for _, seed in group.cells):
        try:
            workloads[seed] = generate(group.spec, seed)
        except Exception as exc:  # noqa: BLE001 - reported per cell
            broken[seed] = (repr(exc), _traceback())
    outcomes: list[tuple] = []
    for pos, seed in group.cells:
        policy = group.policies[pos]
        error = broken.get(seed)
        if error is None:
            try:
                value, telemetry, profile = _run_cell(
                    group, workloads[seed], policy
                )
            except Exception as exc:  # noqa: BLE001 - reported per cell
                error = (repr(exc), _traceback())
        if error is None:
            outcomes.append((value, None, telemetry, profile))
        else:
            failure = CellFailure(group.x, seed, policy.display, *error)
            outcomes.append((None, failure, None, None))
    # (values, failures, telemetry, profiles), one entry per cell
    return GroupResult(group, *zip(*outcomes))


def grid_sweep(
    columns: Sequence[SweepColumn],
    policies: Sequence[PolicySpec],
    metric: str,
    seeds: Iterable[int],
    *,
    x_label: str,
    jobs: int = 1,
    progress: ProgressFn | None = None,
    failures: list[CellFailure] | None = None,
    fault_spec: FaultSpec | None = None,
    cell_timeout: float | None = None,
    telemetry: TelemetrySpec | None = None,
    telemetry_out: "dict[str, RunTelemetry] | None" = None,
    profile: bool = False,
    profile_out: "dict[str, ProfileSnapshot] | None" = None,
    resume: str | pathlib.Path | None = None,
) -> MetricSeries:
    """Run a (column × seed × policy) grid and merge it deterministically.

    The returned series carries, per policy, the per-column metric
    averaged over seeds *in seed order*, independent of ``jobs``.  A
    policy whose display name repeats an earlier one is keyed
    ``"{display} #{position}"`` so no column is lost.  Cells listed in
    ``failures`` are excluded from their seed average; a column whose
    every seed failed reports ``nan``.  When ``failures`` is ``None``
    any cell failure raises :class:`~repro.errors.SweepError` (after the
    whole grid has run).  ``fault_spec`` injects the same fault plan per
    (column, seed) workload under every policy; ``cell_timeout`` arms the
    no-progress watchdog of
    :func:`~repro.experiments.parallel.run_cell_groups`.  ``progress``
    receives one line per finished (column, policy) with its seed mean.

    ``jobs`` is the worker count (``<= 0``: one per core).  With one
    worker and no watchdog the grid runs in this process, one group per
    column, policy by policy; otherwise it fans out over a process pool,
    one group per (column, seed).  Either way each (column, seed)
    workload is generated once per group and replayed per policy.

    ``telemetry`` opts every cell into constant-memory streaming
    telemetry; ``telemetry_out`` (a dict the caller owns) then receives,
    per policy display name, the cells' telemetry merged **in grid order**
    — column index first, then seed order, independent of completion
    order.  Together with the associative sketch merge this makes the
    merged telemetry byte-identical (``as_dict()``-equal) for any
    ``jobs`` count.

    ``profile=True`` runs every cell under a fresh
    :class:`~repro.obs.profile.PhaseProfiler`; ``profile_out`` then
    receives, per policy display name, the cells'
    :class:`~repro.obs.profile.ProfileSnapshot` merged in the same
    fixed grid order.  Counts and structure are deterministic for any
    ``jobs`` count (wall-clock totals naturally vary run to run).

    ``resume`` makes the sweep restartable: every completed cell is
    appended (atomically per line, flushed immediately) to a
    :class:`~repro.ckpt.sweep.SweepManifest` at that path, and on
    restart cells already listed — under the same grid fingerprint —
    are skipped and their persisted values merged back in.  JSON floats
    round-trip exactly, so the resumed series is byte-identical to a
    fresh run.  Resume cannot be combined with ``telemetry`` or
    ``profile`` (their per-cell state is not persisted in the manifest).
    """
    seed_list = list(seeds)
    policy_list = tuple(policies)
    manifest = None
    if resume is not None:
        if telemetry is not None or profile:
            raise CheckpointError(
                "sweep resume cannot be combined with telemetry or "
                "profile collection: their per-cell state is not "
                "persisted in the manifest"
            )
        from repro.ckpt.sweep import SweepManifest, grid_fingerprint

        manifest = SweepManifest.open(
            resume,
            grid_fingerprint(columns, policy_list, metric, seed_list, fault_spec),
        )
    done = manifest.completed if manifest is not None else {}
    batches = (
        [seed_list]
        if runs_in_process(jobs, cell_timeout)
        else [[seed] for seed in seed_list]
    )
    groups = []
    for i, column in enumerate(columns):
        for batch in batches:
            cells = tuple(
                (pos, seed)
                for pos in range(len(policy_list))
                for seed in batch
                if (i, seed, pos) not in done
            )
            if cells:
                groups.append(
                    CellGroup(
                        i, column.x, column.spec, policy_list, cells, metric,
                        column.servers, fault_spec, telemetry, profile,
                    )
                )

    def seed_mean(results: dict, i: int, pos: int) -> float:
        values = [
            results[(i, seed, pos)]
            for seed in seed_list
            if (i, seed, pos) in results
        ]
        return mean(values) if values else math.nan

    def finished(i: int, pos: int, results: dict) -> None:
        assert progress is not None
        policy = policy_list[pos]
        options = "".join(f" {key}={value}" for key, value in policy.kwargs)
        progress(
            f"x={columns[i].x:g} {policy.display}{options} "
            f"{metric}={seed_mean(results, i, pos):.3f}"
        )

    cell_telemetry: "dict[tuple[int, int, int], RunTelemetry]" = {}
    cell_profiles: "dict[tuple[int, int, int], ProfileSnapshot]" = {}
    try:
        results, cell_failures = run_cell_groups(
            _run_group,
            groups,
            jobs,
            finished if progress is not None else None,
            timeout=cell_timeout,
            telemetry_out=cell_telemetry,
            profile_out=cell_profiles,
            manifest=manifest,
        )
    finally:
        if manifest is not None:
            manifest.close()
    if cell_failures:
        if failures is None:
            raise SweepError(cell_failures)
        failures.extend(cell_failures)

    def merge_cells(cells: dict, out: dict, empty: Callable) -> None:
        # Fixed grid order — the determinism lever for the float parts
        # of a telemetry merge; sketches are order-free.
        for pos, policy in enumerate(policy_list):
            merged = out[policy.display] = empty(policy)
            for i in range(len(columns)):
                for seed in seed_list:
                    if (i, seed, pos) in cells:
                        merged.merge(cells[(i, seed, pos)])

    if telemetry is not None and telemetry_out is not None:
        from repro.obs.streaming import RunTelemetry

        accuracy, topk = telemetry.quantile_accuracy, telemetry.topk
        merge_cells(
            cell_telemetry,
            telemetry_out,
            lambda _: RunTelemetry(accuracy, topk=topk),
        )
    if profile and profile_out is not None:
        from repro.obs.profile import ProfileSnapshot

        merge_cells(
            cell_profiles,
            profile_out,
            lambda policy: ProfileSnapshot(policy=policy.display),
        )

    series = MetricSeries(
        x_label=x_label, x=[column.x for column in columns], metric=metric
    )
    for pos, policy in enumerate(policy_list):
        name = policy.display
        if name in series.series:
            name = f"{name} #{pos}"
        series.add(name, [seed_mean(results, i, pos) for i in range(len(columns))])
    return series


def utilization_sweep(
    base_spec: WorkloadSpec,
    policies: Sequence[PolicySpec],
    metric: str,
    config: ExperimentConfig,
    utilizations: Sequence[float] | None = None,
    progress: ProgressFn | None = None,
    jobs: int = 1,
    failures: list[CellFailure] | None = None,
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
        Optional callable receiving one human-readable line per finished
        (utilization, policy) setting, with its seed mean.
    jobs:
        Worker processes; ``1`` (the default) runs the grid in this
        process, ``> 1`` fans it out over a process pool (see
        :func:`grid_sweep`).  Results are byte-identical either way.
    failures:
        Opt-in cell-failure capture: pass a list to collect
        :class:`~repro.experiments.parallel.CellFailure` entries instead
        of raising :class:`~repro.errors.SweepError`.
    fault_spec:
        Optional :class:`~repro.faults.FaultSpec`; the same seeded fault
        schedule is injected per (utilization, seed) workload so the
        policies compete under identical adversity.
    cell_timeout:
        Wall-clock seconds of the no-progress watchdog; runs the grid in
        the process pool even with ``jobs=1`` (a hung in-process cell
        could never be interrupted).
    resume:
        Path of a :class:`~repro.ckpt.sweep.SweepManifest`: completed
        cells are persisted as the sweep goes and skipped on restart
        (the merged series stays byte-identical to a fresh run).
    """
    xs = utilizations if utilizations is not None else config.utilizations
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
