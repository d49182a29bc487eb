"""Process-pool fan-out for the experiment sweeps.

The sequential sweeps in :mod:`repro.experiments.runner` walk a
(x-value × seed × policy) grid one cell at a time.  Every cell is an
independent simulation, so this module fans the grid out across worker
processes and merges the per-cell results back **deterministically**: the
merged :class:`~repro.metrics.aggregates.MetricSeries` is byte-identical
to the sequential one regardless of worker count or completion order.

The unit of work shipped to a worker is a :class:`CellGroup` — one
``(spec, seed)`` pair plus the full policy list.  The worker generates
the workload *once* and replays it per policy (resetting in between),
exactly like the sequential path; shipping whole groups instead of
single cells avoids regenerating the same workload ``|policies|`` times.

Determinism argument: ``generate(spec, seed)`` is pure and each replay
is a deterministic function of ``(workload, policy)``, so every cell
value is the same float no matter where or when it is computed.  The
merge then averages those values *in seed order* with the same
:func:`~repro.metrics.aggregates.mean` the sequential path uses, so the
resulting series match bit for bit.

Failures are captured per cell: a raising policy (or a failing workload
generation, which fails every cell of its group) yields a
:class:`CellFailure` carrying the ``(x, seed, policy)`` coordinates and
the worker-side traceback.  Callers either collect them (``failures=``)
— failed cells are simply left out of the seed average, and a column
with no surviving seed reports ``nan`` — or get a
:class:`~repro.errors.SweepError` aggregating them all.

A sweep can also inject faults: a :class:`~repro.faults.FaultSpec` on a
:class:`CellGroup` is expanded worker-side into a
:class:`~repro.faults.plan.FaultPlan` (specs are small and picklable;
plans are rebuilt deterministically from the spec, so shipping the spec
keeps the pickle payload flat).  And it can guard against hangs: a
``timeout`` hands the whole run to the process pool (even with one
worker) and converts any window with no completed group into per-cell
timeout :class:`CellFailure` entries instead of blocking forever.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import signal
import sys
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from traceback import format_exc
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import CheckpointError, SweepError, SweepInterrupted
from repro.experiments.config import PolicySpec
from repro.faults import FaultSpec, plan_faults
from repro.metrics.aggregates import MetricSeries, mean
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.sweep import SweepManifest
    from repro.obs.profile import ProfileSnapshot
    from repro.obs.streaming import RunTelemetry

__all__ = [
    "CellGroup",
    "CellFailure",
    "GroupResult",
    "SweepColumn",
    "TelemetrySpec",
    "grid_sweep",
    "resolve_jobs",
    "run_cell_groups",
]

#: Type of the optional per-line progress callback shared by the sweeps.
ProgressFn = Callable[[str], None]


def resolve_jobs(jobs: int) -> int:
    """Map the user-facing ``--jobs`` value to a worker count.

    ``jobs >= 1`` is taken literally; ``jobs <= 0`` means "one per
    available core" (like ``make -j`` with no argument).
    """
    if jobs >= 1:
        return jobs
    import os

    return max(1, os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True, slots=True)
class TelemetrySpec:
    """Per-cell streaming-telemetry request, shipped to sweep workers.

    When attached to a :class:`CellGroup` every cell runs with per-txn
    retention off and a
    :class:`~repro.obs.streaming.StreamingRecorder`; the resulting
    :class:`~repro.obs.streaming.RunTelemetry` rides home in the
    :class:`GroupResult`.  The sweep merges per-policy telemetry in grid
    order (column, then seed), and the sketch merges are associative, so
    the merged telemetry is byte-identical whatever the worker count.
    """

    quantile_accuracy: float = 0.01
    window: float | None = None
    topk: int = 16


@dataclasses.dataclass(frozen=True, slots=True)
class CellGroup:
    """One (spec, seed) workload replayed under every policy.

    ``index`` is the group's position along the sweep's x axis; together
    with ``seed`` and the policy position it addresses each cell of the
    grid, independent of completion order.
    """

    index: int
    x: float
    seed: int
    spec: WorkloadSpec
    policies: tuple[PolicySpec, ...]
    metric: str
    servers: int = 1
    #: Optional fault injection; the plan is rebuilt worker-side.
    fault_spec: FaultSpec | None = None
    #: Optional streaming telemetry; cells then run with retention off.
    telemetry: TelemetrySpec | None = None
    #: When True every cell runs with a fresh
    #: :class:`~repro.obs.profile.PhaseProfiler` and ships its
    #: :class:`~repro.obs.profile.ProfileSnapshot` home.
    profile: bool = False
    #: Set on resume remnants: ``policies[k]`` sits at position
    #: ``policy_positions[k]`` of the *original* grid's policy list, so
    #: the merge keys cells by their original coordinates even when
    #: already-completed policies were dropped from the group.
    policy_positions: tuple[int, ...] | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class CellFailure:
    """Coordinates and worker-side traceback of one failed sweep cell."""

    x: float
    seed: int
    policy: str
    error: str
    traceback: str


@dataclasses.dataclass(frozen=True, slots=True)
class GroupResult:
    """What a worker sends back: one outcome per policy of the group.

    ``values[i]`` is the metric value of policy ``i`` (``None`` if that
    cell failed); ``failures[i]`` is the matching :class:`CellFailure`
    (``None`` if the cell succeeded).  When the group requested
    telemetry, ``telemetry[i]`` carries policy ``i``'s
    :class:`~repro.obs.streaming.RunTelemetry` (``None`` on failure, or
    an empty tuple when telemetry was off); ``profiles[i]`` is the
    analogous :class:`~repro.obs.profile.ProfileSnapshot` when the group
    requested profiling.
    """

    group: CellGroup
    values: tuple[float | None, ...]
    failures: tuple[CellFailure | None, ...]
    telemetry: "tuple[RunTelemetry | None, ...]" = ()
    profiles: "tuple[ProfileSnapshot | None, ...]" = ()


def _run_group(group: CellGroup) -> GroupResult:
    """Worker entry point: generate once, replay per policy.

    Must stay a module-level function (and :class:`CellGroup` picklable)
    for :class:`~concurrent.futures.ProcessPoolExecutor`.
    """
    try:
        workload = generate(group.spec, group.seed)
    except Exception as exc:  # noqa: BLE001 - reported per cell
        tb = format_exc()
        failures = tuple(
            CellFailure(
                x=group.x,
                seed=group.seed,
                policy=policy.display,
                error=repr(exc),
                traceback=tb,
            )
            for policy in group.policies
        )
        return GroupResult(group, (None,) * len(group.policies), failures)

    plan = None
    if group.fault_spec is not None and not group.fault_spec.is_null:
        # Built once per group: the plan keys off static transaction
        # attributes (id, length, arrival), so it is replay-safe across
        # the per-policy resets below.
        plan = plan_faults(
            group.fault_spec, workload.transactions, servers=group.servers
        )

    values: list[float | None] = []
    failures_out: list[CellFailure | None] = []
    telemetry_out: "list[RunTelemetry | None]" = []
    profiles_out: "list[ProfileSnapshot | None]" = []
    for policy in group.policies:
        try:
            workload.reset()
            recorder = None
            if group.telemetry is not None:
                from repro.obs.streaming import StreamingRecorder

                recorder = StreamingRecorder(
                    quantile_accuracy=group.telemetry.quantile_accuracy,
                    window=group.telemetry.window,
                    topk=group.telemetry.topk,
                )
            profiler = None
            if group.profile:
                from repro.obs.profile import PhaseProfiler

                profiler = PhaseProfiler()
            result = Simulator(
                workload.transactions,
                policy.make(),
                workflow_set=workload.workflow_set,
                servers=group.servers,
                faults=plan,
                instrument=recorder,
                retain_records=group.telemetry is None,
                profiler=profiler,
            ).run()
            values.append(float(getattr(result, group.metric)))
            failures_out.append(None)
            telemetry_out.append(
                recorder.telemetry if recorder is not None else None
            )
            profiles_out.append(
                profiler.snapshot(policy.display)
                if profiler is not None
                else None
            )
        except Exception as exc:  # noqa: BLE001 - reported per cell
            values.append(None)
            telemetry_out.append(None)
            profiles_out.append(None)
            failures_out.append(
                CellFailure(
                    x=group.x,
                    seed=group.seed,
                    policy=policy.display,
                    error=repr(exc),
                    traceback=format_exc(),
                )
            )
    return GroupResult(
        group,
        tuple(values),
        tuple(failures_out),
        tuple(telemetry_out) if group.telemetry is not None else (),
        tuple(profiles_out) if group.profile else (),
    )


def run_cell_groups(
    groups: Sequence[CellGroup],
    jobs: int = 1,
    progress: ProgressFn | None = None,
    timeout: float | None = None,
    telemetry_out: "dict[tuple[int, int, int], RunTelemetry] | None" = None,
    profile_out: "dict[tuple[int, int, int], ProfileSnapshot] | None" = None,
    manifest: "SweepManifest | None" = None,
) -> tuple[dict[tuple[int, int, int], float], list[CellFailure]]:
    """Execute the groups and index every cell result by its coordinates.

    Returns ``(results, failures)`` where ``results`` maps
    ``(group.index, group.seed, policy_position)`` to the metric value.
    The mapping is completion-order independent by construction; the
    failure list is sorted by the same coordinates.  When groups carry a
    :class:`TelemetrySpec`, pass ``telemetry_out`` to collect each
    cell's :class:`~repro.obs.streaming.RunTelemetry` under the same
    coordinate key; when groups set ``profile``, ``profile_out``
    likewise collects each cell's
    :class:`~repro.obs.profile.ProfileSnapshot`.  ``manifest`` (a
    :class:`~repro.ckpt.sweep.SweepManifest`) persists every successful
    cell the moment it is merged, making the sweep resumable.

    A ``KeyboardInterrupt`` (Ctrl-C, or the CLI's SIGTERM handler) is
    handled gracefully: workers are terminated before pool shutdown (no
    orphan processes), completed/failed/pending cell counts go to
    stderr, and :class:`~repro.errors.SweepInterrupted` is raised so
    callers can distinguish an interrupt from a failure.  Cells already
    merged — and, with ``manifest``, persisted — are not lost.

    With ``jobs == 1`` everything runs inline in this process (no pool,
    no pickling); with ``jobs > 1`` groups are fanned out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  ``progress`` is
    invoked under a lock, one line per finished group, so callers may
    share a callback across concurrent sweeps.

    ``timeout`` (wall-clock seconds) is the watchdog window: if *no*
    group completes within it, every still-pending group is converted to
    per-policy timeout :class:`CellFailure` entries and the pool is
    abandoned without waiting for the hung worker.  Setting a timeout
    forces the pool path even with ``jobs == 1`` — an inline hang could
    never be interrupted.
    """
    jobs = resolve_jobs(jobs)
    lock = threading.Lock()

    def report(result: GroupResult) -> None:
        if progress is None:
            return
        failed = sum(1 for f in result.failures if f is not None)
        suffix = "" if not failed else f" ({failed} cell(s) failed)"
        with lock:
            progress(
                f"x={result.group.x:g} seed={result.group.seed} "
                f"[{len(result.group.policies)} policies]{suffix}"
            )

    results: dict[tuple[int, int, int], float] = {}
    failures: list[CellFailure] = []

    def merge(result: GroupResult) -> None:
        positions = result.group.policy_positions
        for local_pos, (value, failure) in enumerate(
            zip(result.values, result.failures)
        ):
            pos = positions[local_pos] if positions is not None else local_pos
            coord = (result.group.index, result.group.seed, pos)
            if failure is not None:
                failures.append(failure)
            else:
                assert value is not None
                results[coord] = value
                if manifest is not None:
                    manifest.record(
                        result.group.index, result.group.seed, pos, value
                    )
                if telemetry_out is not None and result.telemetry:
                    cell_telemetry = result.telemetry[local_pos]
                    if cell_telemetry is not None:
                        telemetry_out[coord] = cell_telemetry
                if profile_out is not None and result.profiles:
                    cell_profile = result.profiles[local_pos]
                    if cell_profile is not None:
                        profile_out[coord] = cell_profile
        report(result)

    try:
        if jobs == 1 and timeout is None:
            for group in groups:
                merge(_run_group(group))
        else:
            _run_pooled(groups, jobs, timeout, merge, failures)
    except KeyboardInterrupt:
        total = sum(len(group.policies) for group in groups)
        completed = len(results)
        failed = len(failures)
        pending = total - completed - failed
        print(
            f"sweep interrupted: {completed} cell(s) completed, "
            f"{failed} failed, {pending} pending",
            file=sys.stderr,
        )
        raise SweepInterrupted(completed, failed, pending) from None

    failures.sort(key=lambda f: (f.x, f.seed, f.policy))
    return results, failures


def _timeout_failures(group: CellGroup, timeout: float) -> list[CellFailure]:
    return [
        CellFailure(
            x=group.x,
            seed=group.seed,
            policy=policy.display,
            error=f"TimeoutError: no result within {timeout:g}s",
            traceback="(worker timed out; no worker-side traceback)",
        )
        for policy in group.policies
    ]


def _worker_signals() -> None:
    """Pool-worker initializer: the parent alone handles interruption.

    A forked worker inherits the parent's Python-level signal handlers.
    Under the CLI's handlers (SIGTERM raises ``KeyboardInterrupt``), the
    ``terminate()`` that reaps an abandoned pool raised inside the
    worker's queue read instead of killing it, and the unwinding worker
    could block forever on the queue's shared lock, so the parent never
    exited.  Workers therefore die on SIGTERM and ignore SIGINT: a
    terminal Ctrl-C reaches the parent, which reaps them.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_pooled(
    groups: Sequence[CellGroup],
    jobs: int,
    timeout: float | None,
    merge: Callable[[GroupResult], None],
    failures: list[CellFailure],
) -> None:
    """Pool execution with an optional no-progress watchdog.

    Abandons the pool (terminate workers, then non-waiting shutdown) in
    two cases: the watchdog fired, or the caller interrupted the sweep
    (``KeyboardInterrupt``, re-raised after the cleanup is armed).
    """
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_worker_signals)
    abandon = False
    try:
        future_to_group = {
            pool.submit(_run_group, group): group for group in groups
        }
        pending = set(future_to_group)
        while pending:
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # Nothing finished inside the watchdog window: treat every
                # outstanding group (hung or queued behind it) as failed.
                abandon = True
                for future in pending:
                    future.cancel()
                    failures.extend(
                        _timeout_failures(future_to_group[future], timeout or 0.0)
                    )
                break
            for future in done:
                merge(future.result())
    except KeyboardInterrupt:
        # Graceful interruption: reap the workers below instead of
        # orphaning them, then let run_cell_groups report the counts.
        abandon = True
        raise
    finally:
        if abandon:
            # Best effort: reap the live workers *before* shutdown (which
            # drops its process handles) so neither this call nor
            # interpreter exit blocks on them.  The manager thread then
            # observes the dead workers and winds itself down.
            # ``_processes`` is a private detail, so tolerate its absence
            # on future Python versions.
            try:
                procs = list(pool._processes.values())  # type: ignore[union-attr]
            except Exception:  # pragma: no cover - interpreter-specific
                procs = []
            for proc in procs:
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already gone
                    pass
        pool.shutdown(wait=not abandon, cancel_futures=True)


@dataclasses.dataclass(frozen=True, slots=True)
class SweepColumn:
    """One x-axis position of a grid sweep: its spec and server count."""

    x: float
    spec: WorkloadSpec
    servers: int = 1


def grid_sweep(
    columns: Sequence[SweepColumn],
    policies: Sequence[PolicySpec],
    metric: str,
    seeds: Iterable[int],
    *,
    x_label: str,
    series_metric: str | None = None,
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
    averaged over seeds *in seed order* — exactly what the sequential
    sweeps compute.  Cells listed in ``failures`` are excluded from
    their seed average; a column whose every seed failed reports
    ``nan``.  When ``failures`` is ``None`` any cell failure raises
    :class:`~repro.errors.SweepError` (after the whole grid has run).
    ``fault_spec`` injects the same fault plan per (spec, seed) group;
    ``cell_timeout`` arms the no-progress watchdog of
    :func:`run_cell_groups`.

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
    fresh single-process run.  Resume cannot be combined with
    ``telemetry`` or ``profile`` (their per-cell state is not
    persisted in the manifest).
    """
    seed_list = list(seeds)
    policy_list = list(policies)
    manifest: "SweepManifest | None" = None
    preloaded: dict[tuple[int, int, int], float] = {}
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
            grid_fingerprint(
                columns, policy_list, metric, seed_list, fault_spec
            ),
        )
        preloaded = dict(manifest.completed)
    groups = []
    for i, column in enumerate(columns):
        for seed in seed_list:
            positions = tuple(
                pos
                for pos in range(len(policy_list))
                if (i, seed, pos) not in preloaded
            )
            if not positions:
                continue  # every cell of this group already completed
            groups.append(
                CellGroup(
                    index=i,
                    x=column.x,
                    seed=seed,
                    spec=column.spec,
                    policies=tuple(policy_list[pos] for pos in positions),
                    metric=metric,
                    servers=column.servers,
                    fault_spec=fault_spec,
                    telemetry=telemetry,
                    profile=profile,
                    policy_positions=(
                        positions
                        if len(positions) != len(policy_list)
                        else None
                    ),
                )
            )
    cell_telemetry: "dict[tuple[int, int, int], RunTelemetry] | None" = (
        {} if telemetry is not None and telemetry_out is not None else None
    )
    cell_profiles: "dict[tuple[int, int, int], ProfileSnapshot] | None" = (
        {} if profile and profile_out is not None else None
    )
    try:
        results, cell_failures = run_cell_groups(
            groups, jobs, progress, timeout=cell_timeout,
            telemetry_out=cell_telemetry,
            profile_out=cell_profiles,
            manifest=manifest,
        )
    finally:
        if manifest is not None:
            manifest.close()
    if preloaded:
        # Persisted cells merge under their original coordinates; cells
        # recomputed this attempt never collide with them (they were
        # excluded from the groups above).
        results = {**preloaded, **results}
    if cell_failures:
        if failures is None:
            raise SweepError(cell_failures)
        failures.extend(cell_failures)

    if cell_telemetry is not None:
        assert telemetry is not None and telemetry_out is not None
        from repro.obs.streaming import RunTelemetry

        for pos, policy in enumerate(policy_list):
            merged = RunTelemetry(
                telemetry.quantile_accuracy, topk=telemetry.topk
            )
            # Fixed grid order — the determinism lever for the float
            # (moments) part of the merge; sketches are order-free.
            for i in range(len(columns)):
                for seed in seed_list:
                    cell = cell_telemetry.get((i, seed, pos))
                    if cell is not None:
                        merged.merge(cell)
            telemetry_out[policy.display] = merged

    if cell_profiles is not None:
        assert profile_out is not None
        from repro.obs.profile import ProfileSnapshot

        for pos, policy in enumerate(policy_list):
            merged_profile = ProfileSnapshot(policy=policy.display)
            # Same fixed grid order as the telemetry merge above.
            for i in range(len(columns)):
                for seed in seed_list:
                    cell_snap = cell_profiles.get((i, seed, pos))
                    if cell_snap is not None:
                        merged_profile.merge(cell_snap)
            profile_out[policy.display] = merged_profile

    series = MetricSeries(
        x_label=x_label,
        x=[column.x for column in columns],
        metric=series_metric if series_metric is not None else metric,
    )
    for pos, policy in enumerate(policy_list):
        column_means: list[float] = []
        for i in range(len(columns)):
            values = [
                results[(i, seed, pos)]
                for seed in seed_list
                if (i, seed, pos) in results
            ]
            column_means.append(mean(values) if values else math.nan)
        series.add(policy.display, column_means)
    return series
