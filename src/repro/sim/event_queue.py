"""A deterministic binary-heap event queue.

Thin wrapper around :mod:`heapq` over :class:`~repro.sim.events.Event`
tuples, which order natively by ``(time, kind, seq)``, offering the
batch-pop the engine needs: all events sharing the earliest timestamp
are handled within a single scheduling point.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from repro.sim.events import Event

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of :class:`~repro.sim.events.Event` tuples.

    Examples
    --------
    >>> from repro.sim.events import Event, EventKind
    >>> q = EventQueue()
    >>> q.push(Event(2.0, EventKind.ARRIVAL, seq=1, txn_id=7))
    >>> q.push(Event(2.0, EventKind.COMPLETION, seq=2, txn_id=3))
    >>> [e.kind.name for e in q.pop_batch()]
    ['COMPLETION', 'ARRIVAL']
    >>> q.push_all([Event(1.0, EventKind.ARRIVAL, seq=4, txn_id=9),
    ...             Event(1.0, EventKind.ACTIVATION, seq=3)])
    >>> [e.seq for e in q.pop_batch()]
    [4, 3]
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[Event] = []

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)

    def push_all(self, events: Iterable[Event]) -> None:
        """Push many events at once: append them all, then one heapify.

        Linear in the queue size, against ``n log n`` for ``n`` pushes;
        the pop order is the same, since events order totally.
        """
        heap = self._heap
        heap.extend(events)
        heapq.heapify(heap)

    def peek_time(self) -> float:
        """Timestamp of the earliest pending event."""
        if not self._heap:
            raise IndexError("peek on empty event queue")
        return self._heap[0][0]

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop on empty event queue")
        return heapq.heappop(self._heap)

    def pop_batch(self) -> list[Event]:
        """Pop every event sharing the earliest timestamp, in kind order."""
        heap = self._heap
        if not heap:
            raise IndexError("pop_batch on empty event queue")
        first = heapq.heappop(heap)
        batch = [first]
        time = first[0]
        # repro-lint: disable=RL003 -- batch identity: only events pushed
        # with a bit-identical timestamp belong to one scheduling point; a
        # tolerance here would merge distinct points an ulp apart.
        while heap and heap[0][0] == time:
            batch.append(heapq.heappop(heap))
        return batch

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate pending events in an unspecified (heap) order."""
        return iter(self._heap)

    def __reduce__(
        self,
    ) -> tuple[Callable[..., EventQueue], tuple[list[object], ...]]:
        # One list per Event field: pickled whole, each Event (a tuple
        # subclass) would take a Python-level reduction, and a run
        # checkpointed early holds thousands of pending arrivals.
        heap = self._heap
        return _from_columns, tuple(
            list(map(itemgetter(field), heap)) for field in range(len(Event._fields))
        )


def _from_columns(*columns: list[object]) -> EventQueue:
    """The queue :meth:`EventQueue.__reduce__` pickled, in heap order."""
    queue = EventQueue()
    queue._heap = list(map(Event._make, zip(*columns)))
    return queue
