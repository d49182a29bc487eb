"""Tests for the context-switch overhead extension."""

import pytest

from repro.errors import SimulationError
from repro.policies import EDF, FCFS, SRPT
from repro.sim.engine import Simulator
from repro.sim.validation import validate_schedule
from tests.conftest import busy_time, make_txn, run_segments


class TestBasics:
    def test_negative_overhead_rejected(self):
        with pytest.raises(SimulationError):
            Simulator([make_txn(1)], EDF(), preemption_overhead=-1.0)

    def test_zero_overhead_is_default_behaviour(self):
        txns = [make_txn(i, arrival=float(i), length=2.0) for i in range(1, 5)]
        plain = Simulator(txns, EDF()).run()
        explicit = Simulator(txns, EDF(), preemption_overhead=0.0).run()
        assert [r.finish for r in plain.records] == [
            r.finish for r in explicit.records
        ]

    def test_first_dispatch_pays_warmup(self):
        t = make_txn(1, arrival=0.0, length=2.0, deadline=100.0)
        res = Simulator([t], EDF(), preemption_overhead=0.5).run()
        assert res.record_of(1).finish == pytest.approx(2.5)

    def test_sequential_switches_each_pay(self):
        txns = [
            make_txn(1, arrival=0.0, length=2.0, deadline=100.0),
            make_txn(2, arrival=0.0, length=2.0, deadline=100.0),
        ]
        res = Simulator(txns, FCFS(), preemption_overhead=0.5).run()
        assert res.record_of(1).finish == pytest.approx(2.5)
        assert res.record_of(2).finish == pytest.approx(5.0)


class TestContinuationSemantics:
    def test_continuation_pays_nothing_extra(self):
        # An arrival that does not displace the running transaction must
        # not charge another switch.
        running = make_txn(1, arrival=0.0, length=5.0, deadline=6.0)
        later = make_txn(2, arrival=1.0, length=5.0, deadline=50.0)
        res = Simulator([running, later], EDF(), preemption_overhead=0.5).run()
        assert res.record_of(1).finish == pytest.approx(5.5)
        # Second transaction: one switch after the first completes.
        assert res.record_of(2).finish == pytest.approx(11.0)

    def test_preemption_costs_a_switch_on_both_sides(self):
        long = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
        short = make_txn(2, arrival=2.0, length=1.0, deadline=100.0)
        res = Simulator([long, short], SRPT(), preemption_overhead=0.5).run()
        # long: warmup 0.5, works 1.5 by t=2 (remaining 8.5); short:
        # switch 0.5 + 1.0 of work -> 3.5; long: switch 0.5 + 8.5 -> 12.5.
        assert res.record_of(2).finish == pytest.approx(3.5)
        assert res.record_of(1).finish == pytest.approx(12.5)

    def test_interrupted_warmup_resumes_for_continuation(self):
        # An arrival lands mid-warmup but the running transaction keeps
        # the server: only the remaining warmup is served.
        a = make_txn(1, arrival=0.0, length=4.0, deadline=5.0)
        b = make_txn(2, arrival=0.25, length=4.0, deadline=50.0)
        res = Simulator([a, b], EDF(), preemption_overhead=0.5).run()
        assert res.record_of(1).finish == pytest.approx(4.5)

    def test_overhead_increases_tardiness_for_preemptive_policies(self):
        txns = [
            make_txn(i, arrival=i * 0.5, length=4.0, deadline=i * 0.5 + 6.0)
            for i in range(1, 10)
        ]
        free = Simulator(txns, SRPT()).run()
        for t in txns:
            t.reset()
        costly = Simulator(txns, SRPT(), preemption_overhead=1.0).run()
        assert costly.average_tardiness > free.average_tardiness

    def test_trace_includes_overhead_in_slices(self):
        t = make_txn(1, arrival=0.0, length=2.0, deadline=100.0)
        _, segments = run_segments([t], EDF(), preemption_overhead=1.0)
        assert busy_time(segments) == pytest.approx(3.0)
        assert [seg.overhead for seg in segments] == [1.0]

    @pytest.mark.parametrize("servers", [1, 2])
    def test_overhead_schedule_validates(self, servers):
        # Overhead is server time, not service: the validator takes each
        # segment's overhead off, so a preempting run with overhead passes.
        txns = [
            make_txn(i, arrival=float(i), length=float(12 - i), deadline=100.0)
            for i in range(1, 8)
        ]
        res, segments = run_segments(
            txns, SRPT(), servers=servers, preemption_overhead=0.5
        )
        assert res.total_preemptions > 0
        assert sum(seg.overhead for seg in segments) > 0
        validate_schedule(segments, txns, servers=servers)
