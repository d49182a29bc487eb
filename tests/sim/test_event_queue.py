"""Unit tests for the event queue and its arrival lane."""

import itertools
import pickle
import random

import pytest

from repro.sim.event_queue import EventQueue
from repro.sim.events import Event, EventKind
from repro.sim.soa import TxnTable
from tests.conftest import make_txn


def ev(time, kind=EventKind.ARRIVAL, seq=0, txn_id=None):
    return Event(time, kind, seq, txn_id)


def drain(queue):
    batches = []
    while queue:
        batches.append(queue.pop_batch())
    return batches


def test_pop_order_is_chronological():
    q = EventQueue()
    for t in (3.0, 1.0, 2.0):
        q.push(ev(t, seq=int(t)))
    times = [[e.time for e in batch] for batch in drain(q)]
    assert times == [[1.0], [2.0], [3.0]]


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


def test_empty_queue_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop_batch()
    q = EventQueue(TxnTable([make_txn(1, arrival=1.0)]))
    q.pop_batch()
    with pytest.raises(IndexError):
        q.pop_batch()


def test_bool_and_len():
    q = EventQueue()
    assert not q and len(q) == 0
    q.push(ev(1.0))
    assert q and len(q) == 1
    q = EventQueue(TxnTable([make_txn(1), make_txn(2)]))
    assert q and len(q) == 2


@pytest.mark.parametrize("size", [0, 1, 50])
def test_pickle_round_trip_keeps_the_heap(size):
    q = EventQueue()
    for i in range(size):
        txn_id = None if i % 3 else i
        q.push(Event(float(i % 7), EventKind(i % 7), i, txn_id, i % 5))
    back = pickle.loads(pickle.dumps(q))
    assert back._heap == q._heap
    assert all(type(event) is Event for event in back._heap)
    assert all(type(event.kind) is EventKind for event in back._heap)
    assert drain(back) == drain(q)


# -- the arrival lane --------------------------------------------------


def _pool(rng, n, times):
    """``n`` transactions with shuffled ids and arrivals drawn from
    ``times`` (many exact ties, in no particular order)."""
    ids = rng.sample(range(10 * n + 1), n)
    return [make_txn(tid, arrival=rng.choice(times)) for tid in ids]


def _lane_events(table):
    """The ARRIVAL events the lane of ``table`` stands for."""
    return [
        Event(arrival, EventKind.ARRIVAL, i, tid)
        for i, (arrival, tid) in enumerate(zip(table.arrival, table.ids))
    ]


def _random_event(rng, times, seq):
    kind = rng.choice(list(EventKind))
    txn_id = None if kind in (EventKind.CRASH, EventKind.RECOVER) else seq % 11
    return Event(rng.choice(times), kind, seq, txn_id, rng.randrange(3))


def _grouped(events):
    """The oracle: every event, ``sorted``, grouped by exact time."""
    by_time = itertools.groupby(sorted(events), key=lambda e: e.time)
    return [list(group) for _, group in by_time]


@pytest.mark.parametrize("seed", range(25))
def test_lane_and_heap_pop_like_one_sorted_list(seed):
    rng = random.Random(seed)
    times = [float(t) for t in range(rng.randint(1, 6))]
    table = TxnTable(_pool(rng, rng.randint(0, 40), times))
    n = len(table.txns)
    q = EventQueue(table)
    assert q._heap == []  # no arrival is built before its batch pops
    pushed = [_random_event(rng, times, n + k) for k in range(rng.randint(0, 40))]
    for event in pushed:
        q.push(event)
    assert len(q) == n + len(pushed)
    assert drain(q) == _grouped(_lane_events(table) + pushed)


@pytest.mark.parametrize("seed", range(25))
def test_pushes_between_pops_match_a_sorted_list(seed):
    # The engine's pattern: pop a batch, push run-time events at or
    # after its time, pop again.  The oracle keeps a plain list.
    rng = random.Random(1000 + seed)
    times = [t / 2 for t in range(12)]
    table = TxnTable(_pool(rng, 30, times))
    q = EventQueue(table)
    pending = _lane_events(table)
    seq = itertools.count(len(table.txns))
    while q:
        batch = q.pop_batch()
        now = min(e.time for e in pending)
        expected = sorted(e for e in pending if e.time == now)
        assert batch == expected
        pending = [e for e in pending if e.time != now]
        for _ in range(rng.randint(0, 3)):
            later = [t for t in times if t >= now]
            event = _random_event(rng, later, next(seq))
            q.push(event)
            pending.append(event)
    assert pending == []


def test_lane_ties_go_in_pool_order():
    A, C, Y = EventKind.ARRIVAL, EventKind.COMPLETION, EventKind.RETRY
    table = TxnTable(
        [
            make_txn(9, arrival=2.0),
            make_txn(3, arrival=1.0),
            make_txn(5, arrival=2.0),
        ]
    )
    q = EventQueue(table)
    q.push(Event(2.0, Y, 3, 3))
    q.push(Event(2.0, C, 4, 3))
    assert [[(e.kind, e.seq, e.txn_id) for e in b] for b in drain(q)] == [
        [(A, 1, 3)],
        [(C, 4, 3), (A, 0, 9), (A, 2, 5), (Y, 3, 3)],
    ]


@pytest.mark.parametrize("consumed", [0, 2, 5])
def test_pickle_round_trip_of_a_partly_consumed_lane(consumed):
    rng = random.Random(consumed)
    times = [float(t) for t in range(8)]
    table = TxnTable(_pool(rng, 30, times))
    q = EventQueue(table)
    for k in range(20):
        q.push(_random_event(rng, times, 30 + k))
    for _ in range(consumed):
        q.pop_batch()
    back = pickle.loads(pickle.dumps(q))
    assert back._next == q._next and len(back) == len(q)
    assert drain(back) == drain(q)
