"""Tests for the multi-server engine extension."""

import pytest

from repro.errors import SimulationError
from repro.policies import ASETS, ASETSStar, EDF, FCFS, SRPT
from repro.sim.engine import Simulator
from repro.workload import WorkloadSpec, generate
from tests.conftest import busy_time, chain, make_txn, run_segments


class TestBasics:
    def test_server_count_validated(self):
        with pytest.raises(SimulationError):
            Simulator([make_txn(1)], EDF(), servers=0)

    def test_two_servers_run_in_parallel(self):
        txns = [
            make_txn(1, arrival=0.0, length=4.0, deadline=100.0),
            make_txn(2, arrival=0.0, length=4.0, deadline=100.0),
        ]
        res = Simulator(txns, FCFS(), servers=2).run()
        assert res.record_of(1).finish == 4.0
        assert res.record_of(2).finish == 4.0

    def test_makespan_halves_on_balanced_batch(self):
        txns = [
            make_txn(i, arrival=0.0, length=3.0, deadline=1000.0)
            for i in range(1, 9)
        ]
        single = Simulator(txns, FCFS(), servers=1).run()
        double = Simulator(txns, FCFS(), servers=2).run()
        assert single.makespan == pytest.approx(24.0)
        assert double.makespan == pytest.approx(12.0)

    def test_more_servers_than_work(self):
        txns = [make_txn(i, arrival=0.0, length=2.0) for i in range(1, 4)]
        res = Simulator(txns, EDF(), servers=10).run()
        assert res.makespan == pytest.approx(2.0)

    def test_single_server_unchanged(self):
        # servers=1 must behave exactly like the original model.
        w = generate(WorkloadSpec(n_transactions=80, utilization=0.9), seed=4)
        explicit = Simulator(w.transactions, ASETS(), servers=1).run()
        w.reset()
        implicit = Simulator(w.transactions, ASETS()).run()
        assert [r.finish for r in explicit.records] == [
            r.finish for r in implicit.records
        ]


class TestSchedulingSemantics:
    def test_top_two_priorities_run_together(self):
        urgent = make_txn(1, arrival=0.0, length=5.0, deadline=6.0)
        mid = make_txn(2, arrival=0.0, length=5.0, deadline=8.0)
        lax = make_txn(3, arrival=0.0, length=5.0, deadline=100.0)
        res = Simulator([urgent, mid, lax], EDF(), servers=2).run()
        assert res.record_of(1).finish == 5.0
        assert res.record_of(2).finish == 5.0
        assert res.record_of(3).finish == 10.0

    def test_preemption_on_one_server_only(self):
        # Two long transactions running; a short urgent arrival displaces
        # exactly one of them.
        a = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
        b = make_txn(2, arrival=0.0, length=10.0, deadline=100.0)
        c = make_txn(3, arrival=2.0, length=1.0, deadline=100.0)
        res = Simulator([a, b, c], SRPT(), servers=2).run()
        assert res.record_of(3).finish == 3.0
        preemptions = res.record_of(1).preemptions + res.record_of(2).preemptions
        assert preemptions == 1

    def test_dependencies_respected_across_servers(self):
        txns = chain((0.0, 3.0, 50.0), (0.0, 2.0, 50.0))
        extra = make_txn(10, arrival=0.0, length=1.0, deadline=50.0)
        res = Simulator(txns + [extra], EDF(), servers=2).run()
        assert res.record_of(2).first_start >= res.record_of(1).finish

    def test_work_conserving_across_servers(self):
        txns = [
            make_txn(i, arrival=0.0, length=2.0, deadline=1000.0)
            for i in range(1, 8)
        ]
        res, segments = run_segments(txns, SRPT(), servers=3)
        # 14 units of work over 3 servers: makespan ceil(7/3)*2 = 6.
        assert res.makespan == pytest.approx(6.0)
        assert busy_time(segments) == pytest.approx(14.0)


class TestPolicies:
    @pytest.mark.parametrize("name_cls", [EDF, SRPT, ASETS, ASETSStar, FCFS])
    def test_all_policies_complete_with_three_servers(self, name_cls):
        spec = WorkloadSpec(
            n_transactions=90,
            utilization=2.4,  # ~0.8 per server with 3 servers
            weighted=True,
            with_workflows=name_cls is ASETSStar,
        )
        w = generate(spec, seed=6)
        res = Simulator(
            w.transactions,
            name_cls(),
            workflow_set=w.workflow_set,
            servers=3,
        ).run()
        assert res.n == 90

    def test_parallelism_reduces_tardiness(self):
        spec = WorkloadSpec(n_transactions=150, utilization=1.0)
        w = generate(spec, seed=7)
        one = Simulator(w.transactions, ASETS(), servers=1).run()
        w.reset()
        two = Simulator(w.transactions, ASETS(), servers=2).run()
        assert two.average_tardiness < one.average_tardiness
