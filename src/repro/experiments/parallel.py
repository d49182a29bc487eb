"""The executor behind every experiment sweep.

:func:`repro.experiments.runner.grid_sweep` cuts a (x-value × seed ×
policy) grid into :class:`~repro.experiments.runner.CellGroup` batches
and hands them here together with the cell function that runs one
batch.  This module only executes them — in this process, or fanned out
across worker processes — and merges every cell's result back under its
grid coordinates ``(column index, seed, policy position)``, so what the
sweep sees is independent of worker count and completion order.

Determinism argument: ``generate(spec, seed)`` is pure and each replay
is a deterministic function of ``(workload, policy)``, so every cell
value is the same float no matter where or when it is computed.  The
sweep then averages those values *in seed order*, so its series match
bit for bit at any ``jobs`` value.

Failures are captured per cell: a raising policy (or a failing workload
generation, which fails every cell of its seed) yields a
:class:`CellFailure` carrying the ``(x, seed, policy)`` coordinates and
the worker-side traceback.  A ``timeout`` hands the run to the process
pool (even with one worker) and converts any window with no completed
group into per-cell timeout failures instead of blocking forever.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from repro.errors import SweepInterrupted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.sweep import SweepManifest
    from repro.experiments.runner import CellGroup
    from repro.obs.profile import ProfileSnapshot
    from repro.obs.streaming import RunTelemetry

__all__ = [
    "CellFailure",
    "GroupResult",
    "resolve_jobs",
    "run_cell_groups",
    "runs_in_process",
]

#: Grid coordinates of one cell: ``(column index, seed, policy position)``.
Coord = tuple[int, int, int]


def resolve_jobs(jobs: int) -> int:
    """Map the user-facing ``--jobs`` value to a worker count.

    ``jobs >= 1`` is taken literally; ``jobs <= 0`` means "one per
    available core" (like ``make -j`` with no argument).
    """
    if jobs >= 1:
        return jobs
    import os

    return max(1, os.cpu_count() or 1)


def runs_in_process(jobs: int, timeout: float | None) -> bool:
    """Whether :func:`run_cell_groups` runs its groups in this process.

    Only one worker and no watchdog do: an in-process hang could never
    be interrupted.
    """
    return resolve_jobs(jobs) == 1 and timeout is None


class CellFailure(NamedTuple):
    """Coordinates and worker-side traceback of one failed sweep cell."""

    x: float
    seed: int
    policy: str
    error: str
    traceback: str


class GroupResult(NamedTuple):
    """What a cell function returns: one outcome per cell of the group.

    Entry ``k`` of every field belongs to ``group.cells[k]``: the metric
    value (``None`` if the cell failed), the :class:`CellFailure`
    (``None`` if it succeeded), and the cell's
    :class:`~repro.obs.streaming.RunTelemetry` and
    :class:`~repro.obs.profile.ProfileSnapshot` when the group asked for
    them (``None`` otherwise).
    """

    group: "CellGroup"
    values: tuple[float | None, ...]
    failures: tuple[CellFailure | None, ...]
    telemetry: "tuple[RunTelemetry | None, ...]"
    profiles: "tuple[ProfileSnapshot | None, ...]"


def _failed(group: "CellGroup", error: str, traceback: str) -> GroupResult:
    """Every cell of ``group`` failed with the same error."""
    failures = tuple(
        CellFailure(group.x, seed, group.policies[pos].display, error, traceback)
        for pos, seed in group.cells
    )
    nothing = (None,) * len(failures)
    return GroupResult(group, nothing, failures, nothing, nothing)


def run_cell_groups(
    run_group: "Callable[[CellGroup], GroupResult]",
    groups: "Sequence[CellGroup]",
    jobs: int = 1,
    finished: "Callable[[int, int, dict[Coord, float]], None] | None" = None,
    timeout: float | None = None,
    telemetry_out: "dict[Coord, RunTelemetry] | None" = None,
    profile_out: "dict[Coord, ProfileSnapshot] | None" = None,
    manifest: "SweepManifest | None" = None,
) -> tuple[dict[Coord, float], list[CellFailure]]:
    """Run ``run_group`` over the groups and index every cell result.

    Returns ``(results, failures)``: ``results`` maps each successful
    cell's coordinates to its metric value, independent of completion
    order; ``failures`` is sorted by ``(x, seed, policy)``.
    ``telemetry_out`` and ``profile_out`` collect each cell's telemetry
    and profile under the same key.  ``manifest`` (a
    :class:`~repro.ckpt.sweep.SweepManifest`) seeds ``results`` with the
    cells an earlier attempt completed and persists every new cell the
    moment it is merged, making the sweep resumable.

    ``finished(index, pos, results)`` is called once per (column index,
    policy position) whose every cell in ``groups`` has landed, failed
    or succeeded, with the results merged so far.

    With :func:`runs_in_process` the groups run here, in order, with no
    pool and no pickling; otherwise they are fanned out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  ``timeout``
    (wall-clock seconds) is the watchdog window: if *no* group completes
    within it, every still-pending group becomes per-cell timeout
    failures and the pool is abandoned without waiting for the hung
    worker.

    A ``KeyboardInterrupt`` (Ctrl-C, or the CLI's SIGTERM handler)
    terminates the workers before pool shutdown (no orphan processes),
    prints the completed/failed/pending cell counts to stderr and raises
    :class:`~repro.errors.SweepInterrupted`.  Cells already merged — and,
    with ``manifest``, persisted — are not lost.
    """
    results: dict[Coord, float] = (
        dict(manifest.completed) if manifest is not None else {}
    )
    resumed = len(results)
    failures: list[CellFailure] = []
    unfinished = Counter(
        (group.column, pos) for group in groups for pos, _ in group.cells
    )

    def merge(result: GroupResult) -> None:
        group = result.group
        for (pos, seed), value, failure, telemetry, profile in zip(
            group.cells,
            result.values,
            result.failures,
            result.telemetry,
            result.profiles,
        ):
            coord = (group.column, seed, pos)
            if failure is not None:
                failures.append(failure)
            else:
                assert value is not None
                results[coord] = value
                if manifest is not None:
                    manifest.record(group.column, seed, pos, value)
                if telemetry_out is not None and telemetry is not None:
                    telemetry_out[coord] = telemetry
                if profile_out is not None and profile is not None:
                    profile_out[coord] = profile
            unfinished[group.column, pos] -= 1
            if finished is not None and not unfinished[group.column, pos]:
                finished(group.column, pos, results)

    try:
        if runs_in_process(jobs, timeout):
            for group in groups:
                merge(run_group(group))
        else:
            _run_pooled(run_group, groups, resolve_jobs(jobs), timeout, merge)
    except KeyboardInterrupt:
        total = sum(len(group.cells) for group in groups)
        completed = len(results) - resumed
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
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_pooled(
    run_group: "Callable[[CellGroup], GroupResult]",
    groups: "Sequence[CellGroup]",
    jobs: int,
    timeout: float | None,
    merge: Callable[[GroupResult], None],
) -> None:
    """Pool execution with an optional no-progress watchdog.

    Abandons the pool (terminate workers, then non-waiting shutdown) in
    two cases: the watchdog fired, or the caller interrupted the sweep
    (``KeyboardInterrupt``, re-raised after the cleanup is armed).
    """
    # Imported here: every sweep imports this module, and loading the
    # pool's multiprocessing machinery takes tens of milliseconds that an
    # in-process sweep would pay for nothing.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_worker_signals)
    abandon = False
    try:
        future_to_group = {
            pool.submit(run_group, group): group for group in groups
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
                    merge(
                        _failed(
                            future_to_group[future],
                            f"TimeoutError: no result within {timeout or 0.0:g}s",
                            "(worker timed out; no worker-side traceback)",
                        )
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
