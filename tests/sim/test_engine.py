"""Unit tests for the discrete-event engine."""

import pytest

from repro.core.transaction import Transaction
from repro.errors import SchedulingError, SimulationError
from repro.obs.recorder import Recorder
from repro.policies import EDF, FCFS, SRPT
from repro.policies.base import Scheduler
from repro.sim.engine import Simulator
from repro.sim.event_queue import EventQueue
from repro.sim.events import EventKind
from tests.conftest import chain, make_txn


class TestBasics:
    def test_empty_pool_rejected(self):
        with pytest.raises(SimulationError):
            Simulator([], EDF())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError):
            Simulator([make_txn(1), make_txn(1)], EDF())

    def test_unknown_dependency_rejected(self):
        t = Transaction(1, arrival=0, length=1, deadline=2, depends_on=[9])
        with pytest.raises(SimulationError):
            Simulator([t], EDF())

    def test_cycle_rejected(self):
        a = Transaction(1, arrival=0, length=1, deadline=5, depends_on=[2])
        b = Transaction(2, arrival=0, length=1, deadline=5, depends_on=[1])
        with pytest.raises(SimulationError):
            Simulator([a, b], EDF())

    def test_single_transaction_runs_immediately(self):
        t = make_txn(arrival=3.0, length=2.0, deadline=10.0)
        res = Simulator([t], EDF()).run()
        r = res.record_of(1)
        assert r.first_start == 3.0
        assert r.finish == 5.0
        assert r.tardiness == 0.0

    def test_all_transactions_complete(self):
        txns = [make_txn(i, arrival=float(i), length=3.0) for i in range(1, 8)]
        res = Simulator(txns, FCFS()).run()
        assert res.n == 7
        assert all(r.finish > 0 for r in res.records)

    def test_work_conservation_busy_period(self):
        # Back-to-back arrivals: makespan equals total work.
        txns = [make_txn(i, arrival=0.0, length=2.0, deadline=100.0) for i in range(1, 5)]
        res = Simulator(txns, FCFS()).run()
        assert res.makespan == pytest.approx(8.0)

    def test_idle_period_respected(self):
        t1 = make_txn(1, arrival=0.0, length=1.0)
        t2 = make_txn(2, arrival=10.0, length=1.0)
        res = Simulator([t1, t2], FCFS()).run()
        assert res.record_of(2).first_start == 10.0


class TestPreemption:
    def test_srpt_preempts_for_shorter_arrival(self):
        long = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
        short = make_txn(2, arrival=2.0, length=1.0, deadline=100.0)
        res = Simulator([long, short], SRPT(), record_trace=True).run()
        assert res.record_of(2).finish == 3.0
        assert res.record_of(1).finish == 11.0
        assert res.record_of(1).preemptions == 1

    def test_preempted_work_not_lost(self):
        long = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
        short = make_txn(2, arrival=6.0, length=1.0, deadline=100.0)
        res = Simulator([long, short], SRPT(), record_trace=True).run()
        # 6 units done before preemption; only 4 remain afterwards.
        slices = res.trace.slices_of(1)
        assert [s.duration for s in slices] == [6.0, 4.0]

    def test_resumption_does_not_count_as_preemption(self):
        # An arrival that does not change the winner must not bump the
        # preemption counter.
        running = make_txn(1, arrival=0.0, length=5.0, deadline=6.0)
        later = make_txn(2, arrival=1.0, length=5.0, deadline=50.0)
        res = Simulator([running, later], EDF()).run()
        assert res.record_of(1).preemptions == 0

    def test_trace_coalesces_across_uninterrupted_events(self):
        running = make_txn(1, arrival=0.0, length=5.0, deadline=6.0)
        later = make_txn(2, arrival=1.0, length=5.0, deadline=50.0)
        res = Simulator([running, later], EDF(), record_trace=True).run()
        assert [s.txn_id for s in res.trace.slices()] == [1, 2]


class TestDependencies:
    def test_dependent_waits_for_predecessor(self):
        txns = chain((0.0, 3.0, 20.0), (0.0, 2.0, 4.0))
        res = Simulator(txns, EDF()).run()
        # The dependent has the earlier deadline but cannot start first.
        assert res.record_of(2).first_start == 3.0
        assert res.record_of(2).finish == 5.0

    def test_dependent_arriving_late_starts_on_arrival(self):
        txns = chain((0.0, 1.0, 20.0), (10.0, 2.0, 30.0))
        res = Simulator(txns, EDF()).run()
        assert res.record_of(2).first_start == 10.0

    def test_predecessor_arriving_late_blocks_dependent(self):
        t1 = Transaction(1, arrival=10.0, length=1.0, deadline=20.0)
        t2 = Transaction(2, arrival=0.0, length=1.0, deadline=5.0, depends_on=[1])
        res = Simulator([t1, t2], EDF()).run()
        assert res.record_of(2).first_start == 11.0
        assert res.record_of(2).tardiness == pytest.approx(7.0)

    def test_diamond_dependencies(self):
        t1 = Transaction(1, arrival=0, length=1, deadline=50)
        t2 = Transaction(2, arrival=0, length=1, deadline=50, depends_on=[1])
        t3 = Transaction(3, arrival=0, length=1, deadline=50, depends_on=[1])
        t4 = Transaction(4, arrival=0, length=1, deadline=50, depends_on=[2, 3])
        res = Simulator([t1, t2, t3, t4], EDF()).run()
        r4 = res.record_of(4)
        assert r4.first_start == 3.0
        assert r4.finish == 4.0

    def test_scheduling_points_counted(self):
        txns = [make_txn(i, arrival=float(i), length=1.0) for i in range(1, 4)]
        sim = Simulator(txns, FCFS())
        sim.run()
        assert sim.scheduling_points >= 3


@pytest.fixture
def event_log(monkeypatch):
    """Every event pushed to and popped from any queue, in order."""
    log = {"pushed": [], "popped": []}
    push, pop_batch = EventQueue.push, EventQueue.pop_batch

    def logged_push(self, event):
        log["pushed"].append(event)
        push(self, event)

    def logged_pop_batch(self):
        batch = pop_batch(self)
        log["popped"].extend(batch)
        return batch

    monkeypatch.setattr(EventQueue, "push", logged_push)
    monkeypatch.setattr(EventQueue, "pop_batch", logged_pop_batch)
    return log


def _completions(events, txn_id):
    return [
        e.time
        for e in events
        if e.kind is EventKind.COMPLETION and e.txn_id == txn_id
    ]


class TestContinuation:
    """A re-selected transaction keeps its pending completion event."""

    def test_kept_server_means_one_completion_event(self, event_log):
        running = make_txn(1, arrival=0.0, length=5.0, deadline=6.0)
        later = make_txn(2, arrival=1.0, length=5.0, deadline=50.0)
        recorder = Recorder()
        sim = Simulator([running, later], EDF(), instrument=recorder)
        res = sim.run()
        assert _completions(event_log["pushed"], 1) == [5.0]
        assert _completions(event_log["popped"], 1) == [5.0]
        assert res.record_of(1).finish == 5.0
        assert res.record_of(2).finish == 10.0
        assert (sim.scheduling_points, sim.preemptions) == (3, 0)
        # The policy still re-decided at the arrival: the log keeps the
        # continuation's dispatch record.
        dispatches = [
            e["t"]
            for e in recorder.events
            if e["kind"] == "dispatch" and e["txn"] == 1
        ]
        assert dispatches == [0.0, 1.0]

    @pytest.mark.parametrize(
        "length, pending, recomputed, finish_1",
        [
            # Recomputed time an ulp later: the pending event completes
            # the transaction, the fresh one fires alone as stale.
            (0.5, 0.6, 0.6000000000000001, 0.6),
            # An ulp earlier: the fresh event completes it.
            (1.2, 1.3, 1.2999999999999998, 1.2999999999999998),
        ],
    )
    def test_ulp_drift_reissues_the_completion(
        self, event_log, length, pending, recomputed, finish_1
    ):
        # Arrival at 0.1, interrupted at 0.2: 0.2 + (length - 0.1)
        # differs from 0.1 + length by one ulp.
        running = make_txn(1, arrival=0.1, length=length, deadline=5.0)
        later = make_txn(2, arrival=0.2, length=1.0, deadline=50.0)
        sim = Simulator([running, later], EDF())
        res = sim.run()
        assert _completions(event_log["pushed"], 1) == [pending, recomputed]
        # Two arrivals, the completion, and the lone stale event: each
        # opens a scheduling point (the final completion ends the run).
        assert (sim.scheduling_points, sim.preemptions) == (4, 0)
        assert res.record_of(1).finish == finish_1
        assert res.record_of(2).finish == finish_1 + 1.0
        assert res.record_of(1).preemptions == 0


class TestReplay:
    def test_engine_resets_transactions(self):
        txns = [make_txn(i, arrival=0.0, length=2.0) for i in range(1, 4)]
        first = Simulator(txns, FCFS()).run()
        second = Simulator(txns, FCFS()).run()
        assert [r.finish for r in first.records] == [r.finish for r in second.records]

    def test_same_workload_different_policies(self):
        long = make_txn(1, arrival=0.0, length=10.0, deadline=10.5)
        short = make_txn(2, arrival=1.0, length=1.0, deadline=100.0)
        srpt = Simulator([long, short], SRPT()).run()
        edf = Simulator([long, short], EDF()).run()
        assert srpt.record_of(2).finish == 2.0
        assert edf.record_of(2).finish == 11.0


class _IdlePolicy(Scheduler):
    """Deliberately broken policy that never selects anything."""

    name = "idle"

    def on_ready(self, txn, now):
        pass

    def select(self, now):
        return None


class _FinishedSelector(Scheduler):
    """Deliberately broken policy that returns a non-ready transaction."""

    name = "broken"

    def __init__(self):
        super().__init__()
        self._seen = []

    def on_ready(self, txn, now):
        self._seen.append(txn)

    def select(self, now):
        return self._seen[0]


class TestPolicyContractEnforcement:
    def test_idling_with_runnable_work_raises(self):
        txns = [make_txn(1), make_txn(2)]
        with pytest.raises((SchedulingError, SimulationError)):
            Simulator(txns, _IdlePolicy()).run()

    def test_selecting_completed_transaction_raises(self):
        t1 = make_txn(1, arrival=0.0, length=1.0)
        t2 = make_txn(2, arrival=0.0, length=1.0)
        with pytest.raises(SchedulingError):
            Simulator([t1, t2], _FinishedSelector()).run()

    def test_activation_period_must_be_positive(self):
        policy = EDF()
        policy.activation_period = -1.0
        with pytest.raises(SchedulingError):
            Simulator([make_txn(1)], policy).run()
