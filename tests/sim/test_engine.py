"""Unit tests for the discrete-event engine."""

from collections import Counter

import pytest

from repro.core.transaction import Transaction, TransactionState
from repro.core.workflow_set import WorkflowSet
from repro.errors import InvalidTransactionError, SchedulingError, SimulationError
from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.faults import parse_fault_spec
from repro.obs.recorder import Recorder
from repro.policies import EDF, FCFS, SRPT, ASETSStar
from repro.policies.base import Scheduler
from repro.policies.registry import available_policies
from repro.sim.engine import Simulator
from repro.sim.event_queue import EventQueue
from repro.sim.events import Event, EventKind
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec
from tests.conftest import chain, make_txn, run_segments


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

    def test_workflow_set_over_another_pool_copy_rejected(self):
        # Two generations of one spec and seed: equal ids, other objects.
        # The run would otherwise exhaust its events with every
        # transaction unfinished, since the policy watches the other copy.
        spec = WorkloadSpec(
            n_transactions=300, utilization=0.9, weighted=True, with_workflows=True
        )
        mine, other = generate(spec, 3), generate(spec, 3)
        first = mine.transactions[0].txn_id
        with pytest.raises(SimulationError, match=f"transaction {first} "):
            Simulator(
                mine.transactions,
                ASETSStar(),
                workflow_set=other.workflow_set,
            )

    def test_workflow_set_with_one_foreign_object_names_it(self):
        txns = [make_txn(1), make_txn(2), make_txn(3)]
        copy = [make_txn(1), make_txn(2), make_txn(3)]
        workflows = WorkflowSet([txns[0], copy[1], txns[2]])
        with pytest.raises(SimulationError, match="transaction 2 is not"):
            Simulator(txns, ASETSStar(), workflow_set=workflows)
        Simulator(txns, ASETSStar(), workflow_set=WorkflowSet(txns)).run()

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
        res = Simulator([long, short], SRPT()).run()
        assert res.record_of(2).finish == 3.0
        assert res.record_of(1).finish == 11.0
        assert res.record_of(1).preemptions == 1

    def test_preempted_work_not_lost(self):
        long = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
        short = make_txn(2, arrival=6.0, length=1.0, deadline=100.0)
        _, segments = run_segments([long, short], SRPT())
        # 6 units done before preemption; only 4 remain afterwards.
        assert [s.duration for s in segments if s.txn_id == 1] == [6.0, 4.0]

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
        _, segments = run_segments([running, later], EDF())
        assert [s.txn_id for s in segments] == [1, 2]


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
    """Every event pushed to and popped from any queue, in order.

    A queue's arrival lane counts as pushing its arrivals when the queue
    is built, in pool order with seqs 0..n-1, as if pushed one by one.
    """
    log = {"pushed": [], "popped": []}
    init, push = EventQueue.__init__, EventQueue.push
    pop_batch = EventQueue.pop_batch

    def logged_init(self, lane=None, start=0):
        init(self, lane, start)
        if lane is not None:
            log["pushed"].extend(
                Event(arrival, EventKind.ARRIVAL, seq, txn_id)
                for seq, (arrival, txn_id) in enumerate(
                    zip(lane.arrival[start:], lane.ids[start:]), start
                )
            )

    def logged_push(self, event):
        log["pushed"].append(event)
        push(self, event)

    def logged_pop_batch(self):
        batch = pop_batch(self)
        log["popped"].extend(batch)
        return batch

    monkeypatch.setattr(EventQueue, "__init__", logged_init)
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


#: The CLI ``chaos`` target's default fault plan.
CHAOS_PLAN = parse_fault_spec(
    "abort_prob=0.1,max_retries=2,stall_prob=0.1,stall_max=1.0,crash_count=1"
)

A, C, T = EventKind.ARRIVAL, EventKind.COMPLETION, EventKind.ACTIVATION
F, X, R, Y = EventKind.FAULT, EventKind.CRASH, EventKind.RECOVER, EventKind.RETRY

#: Per registry policy and fault mode, on one n=400 weighted-workflow
#: input: scheduling points, preemptions, events pushed per kind, and
#: events still queued when the run ends (pushed minus popped).  Pinned
#: literals: an engine change must leave this event work exactly as is.
EVENT_WORK = [
    ("asets", "clean", 845, 46, {A: 400, C: 446}, {}),
    ("asets", "chaos", 1103, 67, {A: 400, C: 559, F: 99, X: 1, R: 1, Y: 44}, {}),
    ("asets-star", "clean", 857, 58, {A: 400, C: 458}, {}),
    ("asets-star", "chaos", 1130, 92, {A: 400, C: 584, F: 102, X: 1, R: 1, Y: 44}, {}),
    ("balance-aware", "clean", 6601, 1974, {A: 400, C: 2374, T: 3921}, {T: 1}),
    ("balance-aware", "chaos", 8240, 2892, {A: 400, C: 3384, T: 3951, F: 565, X: 1, R: 1, Y: 44}, {T: 1}),
    ("edf", "clean", 807, 8, {A: 400, C: 408}, {}),
    ("edf", "chaos", 1037, 9, {A: 400, C: 501, F: 92, X: 1, R: 1, Y: 44}, {}),
    ("fcfs", "clean", 799, 0, {A: 400, C: 400}, {}),
    ("fcfs", "chaos", 1081, 41, {A: 400, C: 533, F: 104, X: 1, R: 1, Y: 44}, {}),
    ("hdf", "clean", 893, 94, {A: 400, C: 494}, {}),
    ("hdf", "chaos", 1179, 131, {A: 400, C: 623, F: 111, X: 1, R: 1, Y: 44}, {}),
    ("hvf", "clean", 889, 90, {A: 400, C: 490}, {}),
    ("hvf", "chaos", 1187, 140, {A: 400, C: 632, F: 114, X: 1, R: 1, Y: 44}, {}),
    ("ls", "clean", 932, 133, {A: 400, C: 533}, {}),
    ("ls", "chaos", 1222, 163, {A: 400, C: 655, F: 124, X: 1, R: 1, Y: 44}, {}),
    ("mix", "clean", 808, 9, {A: 400, C: 409}, {}),
    ("mix", "chaos", 1038, 10, {A: 400, C: 502, F: 92, X: 1, R: 1, Y: 44}, {}),
    ("non-preemptive", "clean", 799, 0, {A: 400, C: 400}, {}),
    ("non-preemptive", "chaos", 1029, 1, {A: 400, C: 493, F: 92, X: 1, R: 1, Y: 44}, {}),
    ("ready", "clean", 845, 46, {A: 400, C: 446}, {}),
    ("ready", "chaos", 1103, 67, {A: 400, C: 559, F: 99, X: 1, R: 1, Y: 44}, {}),
    ("srpt", "clean", 903, 104, {A: 400, C: 504}, {}),
    ("srpt", "chaos", 1172, 128, {A: 400, C: 620, F: 110, X: 1, R: 1, Y: 44}, {}),
]


@pytest.fixture(scope="module")
def weighted_workflows():
    spec = WorkloadSpec(
        n_transactions=400, utilization=1.0, weighted=True, with_workflows=True
    )
    return generate(spec, seed=7)


def test_event_work_table_covers_the_registry():
    assert sorted({row[0] for row in EVENT_WORK}) == available_policies()


class TestEventWork:
    @pytest.mark.parametrize(
        "name, mode, points, preemptions, pushed, unpopped",
        EVENT_WORK,
        ids=[f"{row[0]}-{row[1]}" for row in EVENT_WORK],
    )
    def test_same_points_preemptions_and_events(
        self,
        event_log,
        weighted_workflows,
        name,
        mode,
        points,
        preemptions,
        pushed,
        unpopped,
    ):
        kwargs = {"time_rate": 0.5} if name == "balance-aware" else {}
        faults = CHAOS_PLAN if mode == "chaos" else None
        result = run_policy_on(
            weighted_workflows, PolicySpec.of(name, **kwargs), faults=faults
        )
        assert result.scheduling_points == points
        assert result.total_preemptions == preemptions
        assert Counter(e.kind for e in event_log["pushed"]) == pushed
        popped = Counter(pushed)
        popped.subtract(unpopped)
        assert Counter(e.kind for e in event_log["popped"]) == +popped


class _Tamper(EDF):
    """EDF that forces ``victim`` into ``state`` at every arrival."""

    def __init__(self, victim, state):
        super().__init__()
        self.victim = victim
        self.state = state

    def on_arrival(self, txn, now):
        if txn is not self.victim:
            self.victim.state = self.state
        super().on_arrival(txn, now)


class TestIncumbentStateChecks:
    def test_suspending_a_non_running_incumbent_raises(self):
        # Transaction 1 runs from t=0; at the t=1 point it is not RUNNING.
        running = make_txn(1, arrival=0.0, length=5.0, deadline=6.0)
        later = make_txn(2, arrival=1.0, length=1.0, deadline=50.0)
        policy = _Tamper(running, TransactionState.READY)
        with pytest.raises(
            InvalidTransactionError,
            match="transaction 1: expected state TransactionState.RUNNING, "
            "found TransactionState.READY",
        ):
            Simulator([running, later], policy).run()

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
