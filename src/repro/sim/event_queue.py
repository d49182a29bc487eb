"""A deterministic event queue: a binary heap plus an arrival lane.

The paper's evaluation draws the whole arrival stream before the run
starts (Section IV-A), so pending arrivals need no priority-queue work:
they are the pool's arrival column, read in ``(time, pool index)`` order
through a cursor.  Everything else the engine schedules at run time
(completions, fault triggers, crash transitions, retries, activation
ticks) goes through a :mod:`heapq` heap of
:class:`~repro.sim.events.Event` tuples, which order natively by
``(time, kind, seq)``.  :meth:`EventQueue.pop_batch` merges the two into
the batch the engine needs: all events sharing the earliest timestamp,
handled within a single scheduling point.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import islice
from operator import itemgetter, le
from typing import TYPE_CHECKING, Callable

from repro.sim.events import Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.soa import TxnTable

__all__ = ["EventQueue"]

_ARRIVAL = EventKind.ARRIVAL


class EventQueue:
    """Min-heap of :class:`~repro.sim.events.Event` tuples over an
    optional arrival lane.

    The lane serves one ARRIVAL per transaction of ``lane`` (a
    :class:`~repro.sim.soa.TxnTable`): the arrival at pool index ``i``
    has ``seq=i``, so arrivals tie-break in pool order exactly as if all
    of them had been pushed first, in pool order.  An arrival's
    :class:`~repro.sim.events.Event` is built only when its batch pops.
    ``start`` is the number of arrivals already served (a resumed
    queue's cursor).

    Examples
    --------
    >>> from repro.sim.events import Event, EventKind
    >>> q = EventQueue()
    >>> q.push(Event(2.0, EventKind.ARRIVAL, seq=1, txn_id=7))
    >>> q.push(Event(2.0, EventKind.COMPLETION, seq=2, txn_id=3))
    >>> [e.kind.name for e in q.pop_batch()]
    ['COMPLETION', 'ARRIVAL']
    >>> from repro.core.transaction import Transaction
    >>> from repro.sim.soa import TxnTable
    >>> table = TxnTable([Transaction(5, 1.0, 1.0, 9.0), Transaction(6, 0.5, 1.0, 9.0)])
    >>> q = EventQueue(table)
    >>> q.push(Event(1.0, EventKind.ACTIVATION, seq=2))
    >>> [(e.kind.name, e.seq, e.txn_id) for e in q.pop_batch()]
    [('ARRIVAL', 1, 6)]
    >>> [(e.kind.name, e.seq, e.txn_id) for e in q.pop_batch()]
    [('ARRIVAL', 0, 5), ('ACTIVATION', 2, None)]
    """

    __slots__ = ("_heap", "_lane", "_arrival", "_ids", "_order", "_next")

    def __init__(self, lane: "TxnTable | None" = None, start: int = 0) -> None:
        self._heap: list[Event] = []
        self._lane = lane
        self._arrival = array("d") if lane is None else lane.arrival
        self._ids = array("q") if lane is None else lane.ids
        self._order = _arrival_order(self._arrival)
        self._next = start

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)

    def pop_batch(self) -> list[Event]:
        """Pop every event sharing the earliest timestamp, in kind order."""
        heap = self._heap
        arrival = self._arrival
        k = self._next
        lane_due = k < len(arrival)
        if lane_due:
            order = self._order
            time = arrival[k if order is None else order[k]]
            lane_due = not heap or time <= heap[0][0]
        batch: list[Event] = []
        if not lane_due:
            if not heap:
                raise IndexError("pop_batch on empty event queue")
            batch.append(heapq.heappop(heap))
            time = batch[0][0]
        # repro-lint: disable=RL003 -- batch identity: only events pushed
        # with a bit-identical timestamp belong to one scheduling point; a
        # tolerance here would merge distinct points an ulp apart.
        while heap and heap[0][0] == time:
            batch.append(heapq.heappop(heap))
        if lane_due:
            self._take_arrivals(batch, time)
        return batch

    def _take_arrivals(self, batch: list[Event], time: float) -> None:
        """Append the lane's arrivals at ``time`` (its earliest) to the
        heap's events at ``time`` in ``batch``, keeping kind order."""
        heaped = len(batch)
        arrival, ids, order = self._arrival, self._ids, self._order
        n = len(arrival)
        k = self._next
        while k < n:
            i = k if order is None else order[k]
            if arrival[i] > time:
                break
            batch.append(Event(time, _ARRIVAL, i, ids[i]))
            k += 1
        self._next = k
        if heaped and batch[heaped - 1][1] >= _ARRIVAL:
            # A retry or activation tick (or a pushed arrival) shares the
            # instant: restore the heap's (kind, seq) order.
            batch.sort()

    def __len__(self) -> int:
        return len(self._heap) + len(self._arrival) - self._next

    def __bool__(self) -> bool:
        return bool(self._heap) or self._next < len(self._arrival)

    def __reduce__(
        self,
    ) -> tuple[Callable[..., EventQueue], tuple[object, ...]]:
        # The lane as its table (a pool reference in a checkpoint) and
        # its cursor, then one list per Event field of the heap: pickled
        # whole, each Event (a tuple subclass) would take a Python-level
        # reduction.
        heap = self._heap
        columns = (
            list(map(itemgetter(field), heap)) for field in range(len(Event._fields))
        )
        return _from_columns, (self._lane, self._next, *columns)


def _arrival_order(arrival: array) -> array | None:
    """Pool indices in ``(arrival, index)`` order, or ``None`` when the
    column is already in that order (a generated pool always is)."""
    if all(map(le, arrival, islice(arrival, 1, None))):
        return None
    return array("q", sorted(range(len(arrival)), key=arrival.__getitem__))


def _from_columns(
    lane: "TxnTable | None", start: int, *columns: list[object]
) -> EventQueue:
    """The queue :meth:`EventQueue.__reduce__` pickled, in heap order."""
    queue = EventQueue(lane, start)
    queue._heap = list(map(Event._make, zip(*columns)))
    return queue
