"""Unit tests for SimulationResult and TransactionRecord."""

import pickle

import pytest

from repro.core.transaction import Transaction
from repro.errors import SimulationError
from repro.sim.results import SimulationResult, StreamSummary, TransactionRecord
from tests.conftest import make_txn


def rec(txn_id=1, arrival=0.0, length=2.0, deadline=5.0, weight=1.0, finish=4.0):
    return TransactionRecord(
        txn_id=txn_id,
        arrival=arrival,
        length=length,
        deadline=deadline,
        weight=weight,
        finish=finish,
        first_start=arrival,
        preemptions=0,
    )


class TestTransactionRecord:
    def test_tardiness_definition(self):
        assert rec(deadline=5.0, finish=4.0).tardiness == 0.0
        assert rec(deadline=5.0, finish=7.5).tardiness == 2.5

    def test_weighted_tardiness(self):
        assert rec(deadline=5.0, finish=7.0, weight=3.0).weighted_tardiness == 6.0

    def test_response_time_and_met_deadline(self):
        r = rec(arrival=1.0, finish=4.0)
        assert r.response_time == 3.0
        assert r.met_deadline

    def test_from_incomplete_transaction_raises(self):
        with pytest.raises(SimulationError):
            TransactionRecord.from_transaction(make_txn())

    def test_from_completed_transaction(self):
        t = make_txn(length=2.0, deadline=9.0, weight=3.0)
        t.mark_ready()
        t.mark_running(1.0)
        t.charge(2.0)
        t.mark_completed(3.0)
        r = TransactionRecord.from_transaction(t)
        assert r.finish == 3.0
        assert r.weight == 3.0
        assert r.first_start == 1.0


class TestRecordContract:
    def test_rejects_attribute_assignment(self):
        r = rec()
        with pytest.raises(AttributeError):
            r.finish = 1.0
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_pickle_round_trip(self):
        r = rec(finish=7.5)
        back = pickle.loads(pickle.dumps(r))
        assert back == r
        assert type(back) is TransactionRecord
        assert back.tardiness == 2.5

    def test_keyword_and_positional_construction_agree(self):
        positional = TransactionRecord(
            3, 0.5, 2.0, 6.0, 1.5, 7.0, 1.0, 1, "completed", 0
        )
        keyword = TransactionRecord(
            txn_id=3,
            arrival=0.5,
            length=2.0,
            deadline=6.0,
            weight=1.5,
            finish=7.0,
            first_start=1.0,
            preemptions=1,
        )
        assert positional == keyword
        # A record is a tuple: it equals the plain tuple of its fields.
        assert keyword == (3, 0.5, 2.0, 6.0, 1.5, 7.0, 1.0, 1, "completed", 0)

    def test_from_transaction_maps_every_field_by_name(self):
        # Ten distinct values, so any two swapped fields would show.
        t = Transaction(11, arrival=0.5, length=2.5, deadline=3.5, weight=5.0)
        t.mark_ready()
        t.mark_running(1.25)
        t.charge(0.5)
        t.mark_retry_wait()
        t.rollback(full=False)
        t.resubmit(2.0, deadline=4.25)
        for start in (3.0, 3.5):
            t.mark_running(start)
            t.mark_preempted()
        t.mark_running(4.75)
        t.charge(2.0)
        t.mark_completed(6.75)
        r = TransactionRecord.from_transaction(t)
        assert r.txn_id == 11
        assert r.arrival == 0.5
        assert r.length == 2.5
        assert r.deadline == 4.25
        assert r.weight == 5.0
        assert r.finish == 6.75
        assert r.first_start == 1.25
        assert r.preemptions == 2
        assert r.outcome == "completed"
        assert r.retries == 1
        assert len(set(r)) == len(TransactionRecord._fields) == 10


class TestSimulationResult:
    def test_requires_records(self):
        with pytest.raises(SimulationError):
            SimulationResult("edf", [])

    def test_aggregates(self):
        rs = [
            rec(1, deadline=5.0, finish=4.0, weight=2.0),   # on time
            rec(2, deadline=5.0, finish=9.0, weight=3.0),   # tardy 4
            rec(3, deadline=5.0, finish=7.0, weight=1.0),   # tardy 2
        ]
        res = SimulationResult("edf", rs)
        assert res.n == 3
        assert res.average_tardiness == pytest.approx(2.0)
        assert res.average_weighted_tardiness == pytest.approx((12 + 2) / 3)
        assert res.max_tardiness == 4.0
        assert res.max_weighted_tardiness == 12.0
        assert res.total_tardiness == 6.0
        assert res.deadline_miss_ratio == pytest.approx(2 / 3)
        assert res.makespan == 9.0

    def test_record_of(self):
        res = SimulationResult("edf", [rec(5)])
        assert res.record_of(5).txn_id == 5
        with pytest.raises(KeyError):
            res.record_of(99)

    def test_finish_order(self):
        rs = [rec(1, finish=9.0), rec(2, finish=3.0)]
        assert SimulationResult("x", rs).finish_order() == [2, 1]

    def test_tardy_records(self):
        rs = [rec(1, finish=4.0), rec(2, finish=9.0)]
        tardy = SimulationResult("x", rs).tardy_records()
        assert [r.txn_id for r in tardy] == [2]

    def test_summary_keys(self):
        res = SimulationResult("edf", [rec()])
        summary = res.summary()
        assert summary["n"] == 1.0
        assert "average_weighted_tardiness" in summary

    def test_scheduling_points_surfaced_from_engine(self):
        from repro.policies import FCFS
        from repro.sim.engine import Simulator

        txns = [make_txn(1, arrival=0.0), make_txn(2, arrival=1.0)]
        sim = Simulator(txns, FCFS())
        res = sim.run()
        assert res.scheduling_points == sim.scheduling_points
        assert res.scheduling_points > 0
        assert res.total_preemptions == sim.preemptions
        summary = res.summary()
        assert summary["scheduling_points"] == float(sim.scheduling_points)
        assert summary["total_preemptions"] == float(sim.preemptions)

    def test_total_preemptions_defaults_to_record_sum(self):
        records = [
            TransactionRecord(1, 0.0, 2.0, 5.0, 1.0, 4.0, 0.0, preemptions=2),
            TransactionRecord(2, 0.0, 2.0, 5.0, 1.0, 6.0, 0.0, preemptions=1),
        ]
        res = SimulationResult("edf", records)
        assert res.total_preemptions == 3
        assert res.scheduling_points is None
        assert "scheduling_points" not in res.summary()

    def test_explicit_counts_override(self):
        res = SimulationResult(
            "edf", [rec()], scheduling_points=7, preemptions=4
        )
        assert res.scheduling_points == 7
        assert res.total_preemptions == 4

    def test_mean_over_runs(self):
        r1 = SimulationResult("x", [rec(finish=7.0)])  # tardiness 2
        r2 = SimulationResult("x", [rec(finish=9.0)])  # tardiness 4
        assert SimulationResult.mean_over_runs([r1, r2], "average_tardiness") == 3.0
        with pytest.raises(SimulationError):
            SimulationResult.mean_over_runs([], "average_tardiness")

    def test_repr(self):
        assert "edf" in repr(SimulationResult("edf", [rec()]))


class TestStreamSummaryMerge:
    def test_merge_adds_counts_and_totals_and_maxes_the_maxima(self):
        left = [rec(1, finish=7.0), rec(2, finish=4.0, weight=3.0)]
        right = [
            rec(3, arrival=10.0, deadline=12.0, finish=15.5, weight=2.0),
            rec(4, finish=9.0)._replace(outcome="shed"),
        ]
        a = StreamSummary.from_records(left)
        b = StreamSummary.from_records(right)
        merged = a.merge(b)
        whole = StreamSummary.from_records(left + right)
        # Every count and maximum equals the one-pass summary.
        for name in ("n", "completed", "tardy", "aborted", "shed", "retries",
                     "preemptions", "max_tardiness", "max_weighted_tardiness",
                     "makespan"):
            assert getattr(merged, name) == getattr(whole, name), name
        # Totals are added in the caller's order: left's, then right's.
        assert merged.total_tardiness == a.total_tardiness + b.total_tardiness
        assert merged.total_response_time == (
            a.total_response_time + b.total_response_time
        )
        assert (merged.completed, merged.tardy, merged.shed) == (3, 2, 1)
        assert merged.max_weighted_tardiness == 7.0
        assert merged.makespan == 15.5
