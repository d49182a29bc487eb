"""Definitions 3-5 and the worst case, over hand-built records.

Each quantity has one spelling: a record's ``tardiness`` and
``weighted_tardiness`` on :class:`~repro.sim.results.TransactionRecord`,
their aggregates on :class:`~repro.sim.results.SimulationResult`.  A
subset of a run's records aggregates the same way.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.results import SimulationResult, StreamSummary, TransactionRecord


def rec(finish, deadline, weight=1.0, txn_id=1, outcome="completed"):
    return TransactionRecord(
        txn_id, 0.0, 1.0, deadline, weight, finish, 0.0, 0, outcome
    )


def result(records):
    return SimulationResult("x", records)


def test_tardiness_definition():
    assert rec(finish=4.0, deadline=5.0).tardiness == 0.0
    assert rec(finish=8.0, deadline=5.0).tardiness == 3.0


def test_average_tardiness():
    recs = [rec(4.0, 5.0), rec(8.0, 5.0), rec(11.0, 5.0)]
    assert result(recs).average_tardiness == pytest.approx(3.0)


def test_average_weighted_tardiness():
    recs = [rec(8.0, 5.0, weight=2.0), rec(5.0, 5.0, weight=9.0)]
    assert result(recs).average_weighted_tardiness == pytest.approx(3.0)


def test_max_metrics():
    recs = [rec(8.0, 5.0, weight=1.0), rec(7.0, 5.0, weight=10.0)]
    assert result(recs).max_tardiness == 3.0
    assert result(recs).max_weighted_tardiness == 20.0


def test_miss_ratio_boundary():
    # Finishing exactly at the deadline is a hit.
    recs = [rec(5.0, 5.0), rec(5.1, 5.0)]
    assert result(recs).deadline_miss_ratio == pytest.approx(0.5)


def test_total_tardiness():
    recs = [rec(8.0, 5.0), rec(9.0, 5.0)]
    assert result(recs).total_tardiness == 7.0


@pytest.mark.parametrize(
    "metric",
    [
        "average_tardiness",
        "average_weighted_tardiness",
        "max_tardiness",
        "max_weighted_tardiness",
        "deadline_miss_ratio",
        "total_tardiness",
    ],
)
def test_empty_input_rejected(metric):
    with pytest.raises(SimulationError):
        getattr(result([]), metric)


def test_works_on_generators():
    assert result(rec(8.0, 5.0) for _ in range(2)).average_tardiness == 3.0


def test_a_subset_aggregates_like_a_run():
    recs = [rec(8.0, 5.0, weight=3.0), rec(9.0, 5.0, txn_id=2)]
    gold = [r for r in recs if r.weight > 1.0]
    assert result(gold).total_weighted_tardiness == 9.0
    assert StreamSummary.from_records(gold).total_weighted_tardiness == 9.0


def test_failed_records_carry_no_tardiness():
    shed = rec(9.0, 5.0, txn_id=2, outcome="shed")
    assert shed.tardiness == shed.weighted_tardiness == 0.0
    assert not shed.met_deadline
    res = result([rec(8.0, 5.0), shed])
    assert res.average_tardiness == 3.0  # over completed work only
    assert res.deadline_miss_ratio == 1.0
