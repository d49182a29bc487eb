"""Unit tests for workflow-level ASETS*."""

import pytest

from repro.core.transaction import Transaction
from repro.core.workflow_set import WorkflowSet
from repro.errors import SchedulingError
from repro.policies import ASETSStar
from repro.sim.engine import Simulator
from tests.conftest import chain, make_txn
from tests.policies.asets_star_oracle import ScanASETSStar, edf_list, hdf_list
from tests.properties.test_differential import NaiveASETS


def bind_and_arrive(policy, txns, now=0.0):
    """Build a workflow set, bind the policy, and submit everything."""
    ws = WorkflowSet(txns)
    policy.bind(txns, ws)
    for t in txns:
        policy.on_arrival(t, now)
        if t.is_independent:
            t.mark_ready()
            policy.on_ready(t, now)
        else:
            t.mark_waiting()
        ws.notify_changed(t.txn_id)
    return ws


class TestConfiguration:
    def test_requires_workflows(self):
        assert ASETSStar().requires_workflows

    def test_arrival_without_workflow_set_raises(self):
        policy = ASETSStar()
        policy.bind([make_txn(1)], None)
        with pytest.raises(SchedulingError):
            policy.on_arrival(make_txn(1), 0.0)


class TestListPlacement:
    def test_feasible_workflow_on_edf_list(self):
        policy = ASETSStar()
        txns = chain((0, 2.0, 20.0), (0, 3.0, 30.0))
        bind_and_arrive(policy, txns)
        assert [wf.root_id for wf in edf_list(policy, 0.0)] == [2]
        assert hdf_list(policy, 0.0) == []

    def test_urgent_dependent_drags_workflow_to_hdf_list(self):
        # The dependent's impossible deadline makes the representative
        # tardy: rep.d = 1, rep.r = 2 -> 0 + 2 > 1.
        policy = ASETSStar()
        txns = chain((0, 2.0, 20.0), (0, 3.0, 1.0))
        bind_and_arrive(policy, txns)
        assert edf_list(policy, 0.0) == []
        assert [wf.root_id for wf in hdf_list(policy, 0.0)] == [2]

    def test_unrunnable_workflow_on_no_list(self):
        # Dependent arrived but the leaf did not: no head, not runnable.
        t1 = Transaction(1, arrival=10.0, length=2.0, deadline=20.0)
        t2 = Transaction(2, arrival=0.0, length=3.0, deadline=30.0, depends_on=[1])
        policy = ASETSStar()
        ws = WorkflowSet([t1, t2])
        policy.bind([t1, t2], ws)
        policy.on_arrival(t2, 0.0)
        t2.mark_waiting()
        ws.notify_changed(2)
        assert edf_list(policy, 0.0) == []
        assert hdf_list(policy, 0.0) == []
        assert policy.select(0.0) is None


class TestSelection:
    def test_boosting_beats_ready_blindness(self):
        # Workflow A's *dependent* is urgent; its head is lax.  Workflow B
        # is mildly urgent.  Transaction-level ASETS (= Ready) runs B's
        # head first; ASETS* sees A's representative and runs A's head.
        a_head = Transaction(1, arrival=0.0, length=2.0, deadline=50.0)
        a_root = Transaction(2, arrival=0.0, length=2.0, deadline=4.0, depends_on=[1])
        b_only = Transaction(3, arrival=0.0, length=2.0, deadline=10.0)
        txns = [a_head, a_root, b_only]

        star = ASETSStar()
        bind_and_arrive(star, txns)
        assert star.select(0.0) is a_head

        ready = NaiveASETS()
        for t in txns:
            t.reset()
            if t.is_independent:
                t.mark_ready()
                ready.on_ready(t, 0.0)
        assert ready.select(0.0) is b_only

    def test_figure7_weighted_decision(self):
        # EDF-side workflow E (weight 1) vs HDF-side workflow H whose
        # representative is heavy: NI(E) = r_head,E * w_rep,H,
        # NI(H) = (r_head,H - s_rep,E) * w_rep,E.
        e = Transaction(1, arrival=0.0, length=2.0, deadline=8.0, weight=1.0)
        h = Transaction(2, arrival=0.0, length=3.0, deadline=1.0, weight=5.0)
        policy = ASETSStar()
        bind_and_arrive(policy, [e, h])
        # NI(E) = 2*5 = 10; NI(H) = (3 - 6)*1 = -3 -> run H.
        assert policy.select(0.0) is h

    def test_figure7_edf_wins_when_cheap(self):
        e = Transaction(1, arrival=0.0, length=1.0, deadline=1.0, weight=5.0)
        h = Transaction(2, arrival=0.0, length=3.0, deadline=1.0, weight=1.0)
        policy = ASETSStar()
        bind_and_arrive(policy, [e, h])
        # NI(E) = 1*1 = 1; NI(H) = (3 - 0)*5 = 15 -> run E.
        assert policy.select(0.0) is e

    def test_completed_workflows_pruned(self):
        policy = ASETSStar()
        txns = [make_txn(1, length=1.0)]
        ws = bind_and_arrive(policy, txns)
        t = txns[0]
        assert policy.select(0.0) is t
        t.mark_running(0.0)
        t.charge(1.0)
        t.mark_completed(1.0)
        policy.on_completion(t, 1.0)
        ws.notify_changed(1)
        assert policy.select(1.0) is None
        assert edf_list(policy, 1.0) == []


class TestEquivalenceWithTransactionLevel:
    def test_singleton_workflows_reduce_to_asets(self):
        # On independent unit-weight transactions ASETS* must schedule
        # exactly like transaction-level ASETS (the rescan oracle): same
        # finish time for every transaction on a replayed workload.
        from repro.workload import WorkloadSpec, generate

        spec = WorkloadSpec(n_transactions=60, utilization=0.9)
        workload = generate(spec, seed=3)
        workload.reset()
        star = Simulator(
            workload.transactions,
            ASETSStar(),
            workflow_set=WorkflowSet.singletons(workload.transactions),
        ).run()
        workload.reset()
        flat = Simulator(workload.transactions, NaiveASETS()).run()
        for r_star, r_flat in zip(star.records, flat.records):
            assert r_star.finish == pytest.approx(r_flat.finish)


class TestSharedMembershipPredicate:
    """Regressions for the list-partition drift fixed by ordering.py.

    Historically the introspection helpers judged EDF-List membership by
    tardiness (``is_past_deadline``) while ``_scan`` judged it by
    feasibility (``now + r <= d``), so a workflow that could no longer
    meet its deadline — but whose deadline had not yet passed — appeared
    on different lists depending on who was asking.
    """

    def test_infeasible_but_not_tardy_is_on_hdf_list(self):
        # Deadline 5 is still ahead at now=0, but 8 units of work cannot
        # fit: infeasible, so the HDF list owns it everywhere.
        for policy_type in (ASETSStar, ScanASETSStar):
            t = make_txn(1, length=8.0, deadline=5.0)
            policy = policy_type()
            bind_and_arrive(policy, [t])
            assert policy.select(0.0) is t
            assert [wf.root_id for wf in hdf_list(policy, 0.0)] == [1]
            assert edf_list(policy, 0.0) == []

    def test_exact_fit_stays_on_edf_list(self):
        # The boundary now + r == d is feasible (Definition 6 is <=).
        t = make_txn(1, length=5.0, deadline=5.0)
        policy = ASETSStar()
        bind_and_arrive(policy, [t])
        assert [wf.root_id for wf in edf_list(policy, 0.0)] == [1]
        assert hdf_list(policy, 0.0) == []


class TestZeroDensityGuard:
    def test_zero_believed_remaining_ranks_first_on_hdf(self):
        # A believed remaining of exactly 0.0 reads as infinite density:
        # it must sort ahead of any finite-density workflow instead of
        # raising ZeroDivisionError.
        zero = make_txn(1, length=2.0, deadline=1.0, weight=1.0)
        dense = make_txn(2, length=2.0, deadline=1.0, weight=9.0)
        policy = ASETSStar()
        ws = bind_and_arrive(policy, [zero, dense])
        zero.scheduling_remaining = 0.0
        ws.notify_changed(1)
        # Both are past-deadline (hence infeasible) at now=2.
        assert [wf.root_id for wf in hdf_list(policy, 2.0)] == [1, 2]
        assert policy.select(2.0) is zero

    def test_scan_agrees_on_zero_density(self):
        zero = make_txn(1, length=2.0, deadline=1.0, weight=1.0)
        dense = make_txn(2, length=2.0, deadline=1.0, weight=9.0)
        policy = ScanASETSStar()
        ws = bind_and_arrive(policy, [zero, dense])
        zero.scheduling_remaining = 0.0
        ws.notify_changed(1)
        assert policy.select(2.0) is zero


class TestIntrospectionCaching:
    def test_partition_computes_each_representative_once(self, monkeypatch):
        from repro.core.workflow import Workflow

        txns = [make_txn(i, length=1.0, deadline=50.0) for i in (1, 2, 3)]
        policy = ASETSStar()
        bind_and_arrive(policy, txns)
        calls: dict[int, int] = {}
        original = Workflow.representative

        def counting(self):
            calls[self.wf_id] = calls.get(self.wf_id, 0) + 1
            return original(self)

        monkeypatch.setattr(Workflow, "representative", counting)
        listed = edf_list(policy, 0.0)
        assert len(listed) == 3
        assert calls == {0: 1, 1: 1, 2: 1}


class TestSlackExpression:
    def test_edf_slack_rounds_like_the_oracle(self):
        # The EDF top's slack is d - (t + r), as Transaction.slack and the
        # oracle compute it.  d - t - r rounds differently: at the third
        # completion, t = 0.1 + 0.1 + 0.1, with d = 0.4 and r = 0.1 it is
        # a negative ulp instead of zero.  That broke the negative-impact
        # tie (ties go to the HDF side) and ran txn 0 ahead of the tardy
        # backlog.
        pool = [Transaction(0, arrival=0.3, length=0.1, deadline=0.4)] + [
            Transaction(i, arrival=0.0, length=0.1, deadline=0.1)
            for i in range(1, 10)
        ]

        def finishes(policy):
            for txn in pool:
                txn.reset()
            result = Simulator(
                pool, policy, workflow_set=WorkflowSet.singletons(pool)
            ).run()
            return [(r.txn_id, r.finish) for r in result.records]

        incremental = finishes(ASETSStar())
        assert incremental == finishes(ScanASETSStar())
        assert dict(incremental)[0] == pytest.approx(0.5)
