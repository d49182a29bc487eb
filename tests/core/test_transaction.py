"""Unit tests for the transaction model (Definition 1-3).

A transaction carries the inputs of Definitions 2-3; the quantities
themselves are spelled once each: slack, feasibility and latest start in
:mod:`repro.policies.ordering`, tardiness and response time on the
:class:`~repro.sim.results.TransactionRecord` built from the finished
transaction.
"""

import pytest

from repro.core.transaction import Transaction, TransactionState
from repro.errors import InvalidTransactionError, SimulationError
from repro.policies.ordering import feasible_at, latest_start, slack
from repro.sim.results import TransactionRecord
from tests.conftest import make_txn


def finished(t, start, finish):
    """Run ``t`` from ``start`` to completion at ``finish``; its record."""
    t.mark_ready()
    t.mark_running(start)
    t.charge(t.length)
    t.mark_completed(finish)
    return TransactionRecord.from_transaction(t)


class TestValidation:
    def test_valid_construction(self):
        t = Transaction(1, arrival=0.0, length=3.0, deadline=10.0, weight=2.0)
        assert t.remaining == 3.0
        assert t.state is TransactionState.CREATED
        assert t.is_independent

    def test_non_integer_id_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction("a", arrival=0, length=1, deadline=1)  # type: ignore

    def test_negative_arrival_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=-1, length=1, deadline=1)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=0, length=0, deadline=1)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=0, length=1, deadline=1, weight=0)

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=5, length=1, deadline=4)

    def test_nan_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=0, length=float("nan"), deadline=1)

    def test_infinite_deadline_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=0, length=1, deadline=float("inf"))

    def test_self_dependency_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=0, length=1, deadline=2, depends_on=[1])

    def test_duplicate_dependencies_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(3, arrival=0, length=1, deadline=2, depends_on=[1, 1])

    def test_dependency_list_is_tuple(self):
        t = Transaction(3, arrival=0, length=1, deadline=2, depends_on=[1, 2])
        assert t.depends_on == (1, 2)
        assert not t.is_independent


class TestDerivedQuantities:
    def test_slack_definition(self):
        # Definition 2: s = d - (t + r).
        t = make_txn(length=3.0, deadline=10.0)
        d, r = t.deadline, t.scheduling_remaining
        assert slack(d, r, now=0.0) == 7.0
        assert slack(d, r, now=7.0) == 0.0
        assert slack(d, r, now=8.0) == -1.0

    def test_past_deadline_boundary(self):
        # Definition 6/7 boundary: feasible iff t + r <= d.
        t = make_txn(length=3.0, deadline=10.0)
        d, r = t.deadline, t.scheduling_remaining
        assert feasible_at(d, r, now=7.0)  # t + r == d: still feasible
        assert not feasible_at(d, r, now=7.0001)

    def test_latest_start_time(self):
        t = make_txn(length=3.0, deadline=10.0)
        assert latest_start(t.deadline, t.scheduling_remaining) == 7.0

    def test_tardiness_requires_completion(self):
        # Definition 3 is only meaningful for finished transactions.
        with pytest.raises(SimulationError):
            TransactionRecord.from_transaction(make_txn())

    def test_tardiness_zero_when_on_time(self):
        r = finished(make_txn(length=2.0, deadline=10.0), 0.0, 2.0)
        assert r.tardiness == 0.0
        assert r.weighted_tardiness == 0.0

    def test_tardiness_positive_when_late(self):
        t = make_txn(length=2.0, deadline=3.0, weight=4.0)
        r = finished(t, 5.0, 7.0)
        assert r.tardiness == 4.0
        assert r.weighted_tardiness == 16.0

    def test_response_time(self):
        t = make_txn(arrival=1.0, length=2.0, deadline=30.0)
        assert finished(t, 4.0, 6.0).response_time == 5.0


class TestLifecycle:
    def test_normal_progression(self):
        t = make_txn(length=4.0)
        t.mark_waiting()
        assert t.state is TransactionState.WAITING
        t.mark_ready()
        t.mark_running(1.0)
        assert t.first_start_time == 1.0
        t.charge(4.0)
        t.mark_completed(5.0)
        assert t.is_completed
        assert t.finish_time == 5.0

    def test_direct_ready_for_independent(self):
        t = make_txn()
        t.mark_ready()
        assert t.state is TransactionState.READY

    def test_cannot_run_from_created(self):
        t = make_txn()
        with pytest.raises(InvalidTransactionError):
            t.mark_running(0.0)

    def test_cannot_complete_with_work_left(self):
        t = make_txn(length=4.0)
        t.mark_ready()
        t.mark_running(0.0)
        t.charge(1.0)
        with pytest.raises(InvalidTransactionError):
            t.mark_completed(1.0)

    def test_suspend_does_not_count_preemption(self):
        t = make_txn()
        t.mark_ready()
        t.mark_running(0.0)
        t.mark_suspended()
        assert t.preemptions == 0
        assert t.state is TransactionState.READY

    def test_preempt_counts(self):
        t = make_txn()
        t.mark_ready()
        t.mark_running(0.0)
        t.mark_preempted()
        assert t.preemptions == 1

    def test_first_start_preserved_across_preemption(self):
        t = make_txn(length=5.0)
        t.mark_ready()
        t.mark_running(2.0)
        t.charge(1.0)
        t.mark_suspended()
        t.mark_running(9.0)
        assert t.first_start_time == 2.0
        assert t.last_dispatch_time == 9.0

    def test_charge_validation(self):
        t = make_txn(length=2.0)
        with pytest.raises(InvalidTransactionError):
            t.charge(-1.0)
        with pytest.raises(InvalidTransactionError):
            t.charge(3.0)

    def test_charge_tolerates_fp_residue(self):
        t = make_txn(length=2.0)
        t.charge(2.0 + 1e-10)  # within tolerance
        assert t.remaining == 0.0

    def test_reset_restores_everything(self):
        t = make_txn(length=4.0)
        t.mark_ready()
        t.mark_running(0.0)
        t.charge(4.0)
        t.mark_completed(4.0)
        t.reset()
        assert t.state is TransactionState.CREATED
        assert t.remaining == t.length
        assert t.finish_time is None
        assert t.first_start_time is None
        assert t.preemptions == 0

    def test_repr_mentions_state(self):
        assert "created" in repr(make_txn())
