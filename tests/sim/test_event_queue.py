"""Unit tests for the event queue."""

import pytest

from repro.sim.event_queue import EventQueue
from repro.sim.events import Event, EventKind


def ev(time, kind=EventKind.ARRIVAL, seq=0, txn_id=None):
    return Event(time, kind, seq, txn_id)


def test_pop_order_is_chronological():
    q = EventQueue()
    for t in (3.0, 1.0, 2.0):
        q.push(ev(t, seq=int(t)))
    assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]


def test_pop_batch_groups_equal_timestamps():
    q = EventQueue()
    q.push(ev(1.0, EventKind.ARRIVAL, seq=1))
    q.push(ev(1.0, EventKind.COMPLETION, seq=2))
    q.push(ev(2.0, EventKind.ARRIVAL, seq=3))
    batch = q.pop_batch()
    assert [e.kind for e in batch] == [EventKind.COMPLETION, EventKind.ARRIVAL]
    assert len(q) == 1


def test_same_time_same_kind_ordered_by_seq():
    q = EventQueue()
    q.push(ev(1.0, seq=2, txn_id=20))
    q.push(ev(1.0, seq=1, txn_id=10))
    assert [e.txn_id for e in q.pop_batch()] == [10, 20]


def test_peek_time():
    q = EventQueue()
    q.push(ev(5.0))
    assert q.peek_time() == 5.0
    assert len(q) == 1


def test_empty_queue_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()
    with pytest.raises(IndexError):
        q.pop_batch()
    with pytest.raises(IndexError):
        q.peek_time()


def test_bool_and_iter():
    q = EventQueue()
    assert not q
    q.push(ev(1.0))
    assert q
    assert len(list(iter(q))) == 1


@pytest.mark.parametrize("size", [0, 1, 50])
def test_pickle_round_trip_keeps_the_heap(size):
    import pickle

    q = EventQueue()
    q.push_all(
        Event(float(i % 7), EventKind(i % 7), i, None if i % 3 else i, i % 5)
        for i in range(size)
    )
    back = pickle.loads(pickle.dumps(q))
    assert back._heap == q._heap
    assert all(type(event) is Event for event in back._heap)
    assert all(type(event.kind) is EventKind for event in back._heap)
    assert [back.pop() for _ in range(size)] == [q.pop() for _ in range(size)]
