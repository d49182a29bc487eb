"""Unit tests for events and their ordering."""

from repro.sim.events import Event, EventKind


def test_kind_priority_order():
    # Completions free dependents before simultaneous arrivals are seen.
    assert EventKind.COMPLETION < EventKind.ARRIVAL < EventKind.ACTIVATION


def test_native_order_is_time_then_kind_then_seq():
    e1 = Event(1.0, EventKind.ARRIVAL, seq=5, txn_id=1)
    e2 = Event(1.0, EventKind.COMPLETION, seq=9, txn_id=2)
    e3 = Event(0.5, EventKind.ACTIVATION, seq=1)
    assert sorted([e1, e2, e3]) == [e3, e2, e1]


def test_unique_seq_decides_before_txn_id_and_token():
    # Equal time and kind: the lower seq wins even against a lower
    # txn_id/token, so ordering never depends on fields past ``seq``
    # (and never compares ``None`` with an int).
    later = Event(1.0, EventKind.COMPLETION, seq=2, txn_id=0, token=0)
    earlier = Event(1.0, EventKind.COMPLETION, seq=1, txn_id=9, token=9)
    assert sorted([later, earlier]) == [earlier, later]
    crash = Event(1.0, EventKind.CRASH, seq=3)
    assert crash < Event(1.0, EventKind.CRASH, seq=4, txn_id=1)


def test_events_are_frozen():
    e = Event(1.0, EventKind.ARRIVAL, seq=1, txn_id=1)
    try:
        e.time = 2.0
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("Event should be immutable")


def test_activation_has_no_transaction():
    e = Event(1.0, EventKind.ACTIVATION, seq=1)
    assert e.txn_id is None
