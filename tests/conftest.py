"""Shared test fixtures and factories."""

from __future__ import annotations

import pytest

from repro.core.transaction import Transaction
from repro.obs.analyze.lifecycle import reconstruct
from repro.obs.recorder import Recorder
from repro.sim.engine import Simulator


def make_txn(
    txn_id: int = 1,
    arrival: float = 0.0,
    length: float = 5.0,
    deadline: float | None = None,
    weight: float = 1.0,
    depends_on=(),
) -> Transaction:
    """A transaction with convenient defaults (deadline = arrival + 2*length)."""
    if deadline is None:
        deadline = arrival + 2 * length
    return Transaction(
        txn_id=txn_id,
        arrival=arrival,
        length=length,
        deadline=deadline,
        weight=weight,
        depends_on=depends_on,
    )


@pytest.fixture
def txn() -> Transaction:
    return make_txn()


def chain(*specs, start_id: int = 1) -> list[Transaction]:
    """Build a dependency chain from (arrival, length, deadline[, weight]) tuples.

    Transaction ``i+1`` depends on transaction ``i``.
    """
    txns: list[Transaction] = []
    for offset, spec in enumerate(specs):
        arrival, length, deadline = spec[:3]
        weight = spec[3] if len(spec) > 3 else 1.0
        deps = [start_id + offset - 1] if offset else []
        txns.append(
            Transaction(
                txn_id=start_id + offset,
                arrival=arrival,
                length=length,
                deadline=deadline,
                weight=weight,
                depends_on=deps,
            )
        )
    return txns


def run_segments(transactions, policy, **options):
    """Run ``policy`` over ``transactions`` with a recorder attached.

    Returns the result and who ran when: the segments the run's event
    log folds into (sorted by start, then transaction id).
    """
    recorder = Recorder()
    result = Simulator(transactions, policy, instrument=recorder, **options).run()
    return result, reconstruct(recorder.events).segments


def first_execution_order(segments):
    """Transaction ids in the order they first held a server."""
    return list(dict.fromkeys(seg.txn_id for seg in segments))


def busy_time(segments):
    """Total server time across ``segments``."""
    return sum(seg.duration for seg in segments)
