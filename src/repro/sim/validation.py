"""Schedule validation: check that a schedule is physically possible.

For downstream users writing their own policies, the engine's runtime
guards catch contract violations as they happen; this module checks a
*finished* schedule after the fact — the
:class:`~repro.obs.analyze.lifecycle.Segment` list a run's event log
folds into (:attr:`~repro.obs.analyze.lifecycle.RunLifecycles.segments`),
or a schedule produced elsewhere (another simulator, a solver, a
hand-drawn Gantt):

* no transaction executes before its arrival,
* no transaction executes before its dependencies complete,
* per-transaction execution never overlaps itself,
* at most ``servers`` transactions execute at any instant,
* every transaction receives exactly its processing time (within
  tolerance): a segment's context-switch ``overhead`` is server time,
  not service, so it is subtracted.

:func:`validate_schedule` raises :class:`~repro.errors.SimulationError`
with a precise message on the first violation and returns quietly
otherwise.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from repro.core.transaction import Transaction
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.analyze.lifecycle import Segment

__all__ = ["validate_schedule"]

_EPS = 1e-6


def validate_schedule(
    segments: Sequence[Segment],
    transactions: Sequence[Transaction],
    servers: int = 1,
) -> None:
    """Raise :class:`SimulationError` unless ``segments`` is a valid schedule.

    Examples
    --------
    >>> from repro.obs import Recorder
    >>> from repro.obs.analyze.lifecycle import reconstruct
    >>> from repro.policies import EDF
    >>> from repro.sim.engine import Simulator
    >>> txns = [Transaction(1, arrival=0, length=2, deadline=9)]
    >>> recorder = Recorder()
    >>> _ = Simulator(txns, EDF(), instrument=recorder).run()
    >>> segments = reconstruct(recorder.events).segments
    >>> segments
    (Segment(txn_id=1, start=0.0, end=2.0, overhead=0.0),)
    >>> validate_schedule(segments, txns)  # no exception
    """
    if servers < 1:
        raise SimulationError(f"servers must be >= 1, got {servers}")
    by_id = {t.txn_id: t for t in transactions}

    # Each transaction's segments, chronological.
    own: dict[int, list[Segment]] = {tid: [] for tid in by_id}
    for seg in segments:
        if seg.txn_id not in by_id:
            raise SimulationError(
                f"schedule references unknown transaction {seg.txn_id}"
            )
        own[seg.txn_id].append(seg)
    for group in own.values():
        group.sort(key=attrgetter("start"))

    for tid, txn in by_id.items():
        group = own[tid]
        if group and group[0].start < txn.arrival - _EPS:
            raise SimulationError(
                f"transaction {tid} executed at {group[0].start} "
                f"before its arrival {txn.arrival}"
            )
        received = sum(seg.duration - seg.overhead for seg in group)
        if abs(received - txn.length) > _EPS * max(1.0, txn.length):
            raise SimulationError(
                f"transaction {tid} received {received} time units, "
                f"needs {txn.length}"
            )
        # Self-overlap: a transaction's own segments must be disjoint.
        for a, b in zip(group, group[1:]):
            if b.start < a.end - _EPS:
                raise SimulationError(
                    f"transaction {tid} overlaps itself: "
                    f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                )

    # Capacity: sweep over segment endpoints.
    events: list[tuple[float, int]] = []
    for seg in segments:
        events.append((seg.start, 1))
        events.append((seg.end, -1))
    events.sort()  # ends (-1) before starts (+1) at ties
    active = 0
    for time, delta in events:
        active += delta
        if active > servers:
            raise SimulationError(
                f"{active} transactions executing at t={time} "
                f"with only {servers} server(s)"
            )

    # Precedence: a dependent's first execution follows every
    # dependency's last.
    for txn in by_id.values():
        group = own[txn.txn_id]
        if not group:
            continue
        start = group[0].start
        for dep in txn.depends_on:
            if not own.get(dep):
                raise SimulationError(
                    f"transaction {txn.txn_id} ran but its dependency "
                    f"{dep} never completed"
                )
            dep_finish = max(seg.end for seg in own[dep])
            if start < dep_finish - _EPS:
                raise SimulationError(
                    f"transaction {txn.txn_id} started at {start} before "
                    f"dependency {dep} finished at {dep_finish}"
                )
