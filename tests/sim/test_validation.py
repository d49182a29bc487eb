"""Tests for the after-the-fact schedule validator."""

import pytest

from repro.core.transaction import Transaction
from repro.errors import SimulationError
from repro.obs.analyze.lifecycle import Segment
from repro.policies import ASETSStar, EDF, SRPT
from repro.sim.validation import validate_schedule
from repro.workload import WorkloadSpec, generate
from tests.conftest import chain, make_txn, run_segments


class TestAcceptsRealSchedules:
    def test_single_server_run(self):
        txns = [make_txn(i, arrival=float(i), length=2.0) for i in range(1, 6)]
        _, segments = run_segments(txns, EDF())
        validate_schedule(segments, txns)

    def test_preemptive_run(self):
        long = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
        short = make_txn(2, arrival=2.0, length=1.0, deadline=100.0)
        _, segments = run_segments([long, short], SRPT())
        validate_schedule(segments, [long, short])

    def test_multiserver_run(self):
        txns = [make_txn(i, arrival=0.0, length=3.0) for i in range(1, 7)]
        _, segments = run_segments(txns, SRPT(), servers=3)
        validate_schedule(segments, txns, servers=3)

    def test_workflow_run(self):
        w = generate(
            WorkloadSpec(n_transactions=60, utilization=0.9, with_workflows=True),
            seed=1,
        )
        _, segments = run_segments(
            w.transactions, ASETSStar(), workflow_set=w.workflow_set
        )
        validate_schedule(segments, w.transactions)

    def test_overhead_is_not_service(self):
        txn = make_txn(1, arrival=0.0, length=2.0)
        validate_schedule([Segment(1, 0.0, 3.0, overhead=1.0)], [txn])
        with pytest.raises(SimulationError, match="received"):
            validate_schedule([Segment(1, 0.0, 3.0)], [txn])

    def test_segment_order_does_not_matter(self):
        txns = chain((0.0, 2.0, 9.0), (0.0, 1.0, 9.0))
        segments = [Segment(2, 3.0, 4.0), Segment(1, 2.0, 3.0), Segment(1, 0.0, 1.0)]
        validate_schedule(segments, txns)


class TestRejectsViolations:
    def test_execution_before_arrival(self):
        txn = make_txn(1, arrival=5.0, length=2.0, deadline=20.0)
        with pytest.raises(SimulationError, match="before its arrival"):
            validate_schedule([Segment(1, 3.0, 5.0)], [txn])

    def test_wrong_total_work(self):
        txn = make_txn(1, arrival=0.0, length=2.0)
        with pytest.raises(SimulationError, match="received"):
            validate_schedule([Segment(1, 0.0, 1.0)], [txn])

    def test_unknown_transaction(self):
        with pytest.raises(SimulationError, match="unknown transaction"):
            validate_schedule([Segment(99, 0.0, 1.0)], [make_txn(1)])

    def test_capacity_violation(self):
        a = make_txn(1, arrival=0.0, length=2.0)
        b = make_txn(2, arrival=0.0, length=2.0)
        segments = [Segment(1, 0.0, 2.0), Segment(2, 0.0, 2.0)]
        with pytest.raises(SimulationError, match="server"):
            validate_schedule(segments, [a, b], servers=1)
        validate_schedule(segments, [a, b], servers=2)  # fine with capacity

    def test_self_overlap(self):
        txn = make_txn(1, arrival=0.0, length=4.0)
        segments = [Segment(1, 0.0, 2.0), Segment(1, 1.0, 3.0)]
        with pytest.raises(SimulationError, match="overlaps itself"):
            validate_schedule(segments, [txn], servers=2)

    def test_precedence_violation(self):
        txns = chain((0.0, 1.0, 9.0), (0.0, 1.0, 9.0))
        segments = [Segment(2, 0.0, 1.0), Segment(1, 1.0, 2.0)]  # dependent first
        with pytest.raises(SimulationError, match="before .*dependency|dependency"):
            validate_schedule(segments, txns)

    def test_dependency_never_completed(self):
        t1 = Transaction(1, arrival=0.0, length=1.0, deadline=9.0)
        t2 = Transaction(2, arrival=0.0, length=1.0, deadline=9.0, depends_on=[1])
        with pytest.raises(SimulationError, match="received 0"):
            validate_schedule([Segment(2, 0.0, 1.0)], [t1, t2])
        # Dependency 1 is outside the validated set: it never ran at all.
        with pytest.raises(SimulationError, match="never completed"):
            validate_schedule([Segment(2, 0.0, 1.0)], [t2])

    def test_servers_validated(self):
        with pytest.raises(SimulationError, match="servers"):
            validate_schedule([Segment(1, 0.0, 5.0)], [make_txn(1)], servers=0)
