"""Unit tests for Workflow: topology, head and representative."""

import pytest

from repro.core.transaction import Transaction
from repro.core.workflow import RepresentativeView, Workflow
from repro.errors import InvalidWorkflowError
from repro.policies.ordering import feasible_at, slack
from tests.conftest import chain, make_txn


def wf_of(txns, root=None):
    members = {t.txn_id: t for t in txns}
    root_id = root if root is not None else txns[-1].txn_id
    return Workflow(0, root_id, members)


class TestConstruction:
    def test_root_must_be_member(self):
        t = make_txn(1)
        with pytest.raises(InvalidWorkflowError):
            Workflow(0, 99, {1: t})

    def test_external_dependency_rejected(self):
        t = Transaction(2, arrival=0, length=1, deadline=2, depends_on=[1])
        with pytest.raises(InvalidWorkflowError):
            Workflow(0, 2, {2: t})

    def test_cycle_detected(self):
        a = Transaction(1, arrival=0, length=1, deadline=2, depends_on=[2])
        b = Transaction(2, arrival=0, length=1, deadline=2, depends_on=[1])
        with pytest.raises(InvalidWorkflowError):
            Workflow(0, 1, {1: a, 2: b})

    def test_topological_order_of_chain(self):
        txns = chain((0, 2, 9), (0, 1, 5), (0, 3, 20))
        wf = wf_of(txns)
        assert wf.member_ids == (1, 2, 3)

    def test_topological_order_of_diamond(self):
        t1 = Transaction(1, arrival=0, length=1, deadline=9)
        t2 = Transaction(2, arrival=0, length=1, deadline=9, depends_on=[1])
        t3 = Transaction(3, arrival=0, length=1, deadline=9, depends_on=[1])
        t4 = Transaction(4, arrival=0, length=1, deadline=9, depends_on=[2, 3])
        wf = wf_of([t1, t2, t3, t4], root=4)
        assert wf.member_ids == (1, 2, 3, 4)

    def test_contains_and_len(self):
        txns = chain((0, 2, 9), (0, 1, 5))
        wf = wf_of(txns)
        assert 1 in wf and 2 in wf and 3 not in wf
        assert len(wf) == 2


class TestHeadAndRepresentative:
    def test_nothing_pending_before_arrival(self):
        # Members still CREATED are invisible to the scheduler.
        txns = chain((0, 2, 9), (0, 1, 5))
        wf = wf_of(txns)
        assert wf.representative() is None
        assert wf.head() is None

    def test_representative_aggregates_pending(self):
        # Definition 9: min deadline, min remaining, max weight.
        txns = chain((0, 2, 9, 3.0), (0, 1, 5, 7.0))
        txns[0].mark_ready()
        txns[1].mark_waiting()
        wf = wf_of(txns)
        rep = wf.representative()
        assert rep == RepresentativeView(deadline=5, remaining=1, weight=7.0)

    def test_head_is_ready_member(self):
        txns = chain((0, 2, 9), (0, 1, 5))
        txns[0].mark_ready()
        txns[1].mark_waiting()
        wf = wf_of(txns)
        assert wf.head() is txns[0]

    def test_head_none_when_runnable_member_not_arrived(self):
        txns = chain((0, 2, 9), (0, 1, 5))
        txns[1].mark_waiting()  # dependent arrived, leaf did not
        wf = wf_of(txns)
        assert wf.head() is None
        assert wf.representative() is not None  # dependent is pending

    def test_head_advances_after_completion(self):
        txns = chain((0, 2, 9), (0, 1, 5))
        txns[0].mark_ready()
        txns[1].mark_waiting()
        wf = wf_of(txns)
        assert wf.head() is txns[0]
        txns[0].mark_running(0.0)
        txns[0].charge(2.0)
        txns[0].mark_completed(2.0)
        txns[1].mark_ready()
        wf.invalidate()
        assert wf.head() is txns[1]
        rep = wf.representative()
        assert rep.deadline == 5 and rep.remaining == 1

    def test_completed_workflow_has_no_head(self):
        txns = chain((0, 2, 9))
        txns[0].mark_ready()
        txns[0].mark_running(0.0)
        txns[0].charge(2.0)
        txns[0].mark_completed(2.0)
        wf = wf_of(txns)
        assert wf.head() is None
        assert wf.representative() is None
        assert wf.is_completed

    def test_dag_head_prefers_earliest_deadline(self):
        t1 = Transaction(1, arrival=0, length=1, deadline=9)
        t2 = Transaction(2, arrival=0, length=1, deadline=4)
        t3 = Transaction(3, arrival=0, length=1, deadline=20, depends_on=[1, 2])
        for t in (t1, t2):
            t.mark_ready()
        t3.mark_waiting()
        wf = wf_of([t1, t2, t3], root=3)
        assert wf.head() is t2

    def test_running_member_counts_as_head(self):
        txns = chain((0, 2, 9))
        txns[0].mark_ready()
        txns[0].mark_running(0.0)
        wf = wf_of(txns)
        assert wf.head() is txns[0]

    def test_cache_requires_invalidation(self):
        # Stale by design: the WorkflowSet invalidates on state changes.
        txns = chain((0, 2, 9), (0, 1, 5))
        txns[0].mark_ready()
        txns[1].mark_waiting()
        wf = wf_of(txns)
        _ = wf.head()
        txns[0].mark_running(0.0)
        txns[0].charge(2.0)
        txns[0].mark_completed(2.0)
        txns[1].mark_ready()
        assert wf.head() is txns[0]  # cached value, not yet invalidated
        wf.invalidate()
        assert wf.head() is txns[1]


class TestRepresentativeView:
    def test_slack_and_feasibility(self):
        rep = RepresentativeView(deadline=10, remaining=3, weight=2)
        d, r = rep.deadline, rep.scheduling_remaining
        assert slack(d, r, now=4) == 3
        assert feasible_at(d, r, now=7)  # t + r == d: still feasible
        assert not feasible_at(d, r, now=7.5)

    def test_equality_and_hash(self):
        a = RepresentativeView(1, 2, 3)
        b = RepresentativeView(1, 2, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != RepresentativeView(1, 2, 4)
        assert a.__eq__(object()) is NotImplemented

    def test_scheduling_remaining_defaults_to_remaining(self):
        rep = RepresentativeView(deadline=10, remaining=3, weight=2)
        assert rep.scheduling_remaining == 3

    def test_belief_and_truth_kept_apart(self):
        # The view hands the policies the believed value, never the
        # ground-truth one (the §II-A estimate-error model).
        rep = RepresentativeView(
            deadline=10, remaining=8, weight=1, scheduling_remaining=3
        )
        d, r = rep.deadline, rep.scheduling_remaining
        assert slack(d, r, now=4) == 3  # 10 - (4 + 3), not 10 - (4 + 8)
        assert feasible_at(d, r, now=7)
        assert not feasible_at(d, r, now=7.5)
        assert rep != RepresentativeView(
            deadline=10, remaining=8, weight=1, scheduling_remaining=8
        )

    def test_workflow_aggregates_belief_separately(self):
        # Member beliefs diverge from truth; the representative carries
        # the min of each basis independently (Definition 9 on beliefs).
        t1 = Transaction(
            1, arrival=0, length=6, deadline=9, length_estimate=2.0
        )
        t2 = Transaction(
            2, arrival=0, length=3, deadline=5, depends_on=[1],
            length_estimate=7.0,
        )
        t1.mark_ready()
        t2.mark_waiting()
        wf = wf_of([t1, t2], root=2)
        rep = wf.representative()
        assert rep.remaining == 3  # min true remaining (t2)
        assert rep.scheduling_remaining == 2  # min believed remaining (t1)


class TestTargetedNotes:
    """The O(1) change notes must equal a full invalidate-and-resweep.

    ``note_arrival`` / ``note_shrunk`` merge a monotone change straight
    into the cached aggregates; ``invalidate`` forces the reference
    member sweep.  Twin workflows over identical pools receive the same
    mutation through each route and must agree on every representative
    field and on the head.
    """

    @staticmethod
    def _twin_pools():
        def pool():
            t1 = Transaction(
                1, arrival=0, length=6, deadline=9, length_estimate=5.0
            )
            t2 = Transaction(
                2, arrival=0, length=3, deadline=12, depends_on=[1],
                length_estimate=7.0,
            )
            t3 = Transaction(
                3, arrival=1, length=2, deadline=4, weight=3.0
            )
            t1.mark_ready()
            t2.mark_waiting()
            return t1, t2, t3

        return pool(), pool()

    @staticmethod
    def _views_match(wf_a, wf_b):
        rep_a, rep_b = wf_a.representative(), wf_b.representative()
        assert rep_a.deadline == rep_b.deadline
        assert rep_a.scheduling_remaining == rep_b.scheduling_remaining
        assert rep_a.weight == rep_b.weight
        assert rep_a.remaining == rep_b.remaining
        head_a, head_b = wf_a.head(), wf_b.head()
        assert (head_a and head_a.txn_id) == (head_b and head_b.txn_id)

    def _twins(self):
        (a1, a2, a3), (b1, b2, b3) = self._twin_pools()
        wf_a = Workflow(0, 3, {1: a1, 2: a2, 3: a3})
        wf_b = Workflow(0, 3, {1: b1, 2: b2, 3: b3})
        # Independent t3 shares the workflow purely to give the note a
        # not-yet-pending member to bring in; a diamond isn't needed.
        wf_a.representative(), wf_b.representative()  # settle caches
        return (a1, a2, a3, wf_a), (b1, b2, b3, wf_b)

    def test_note_arrival_equals_resweep(self):
        (_, _, a3, wf_a), (_, _, b3, wf_b) = self._twins()
        a3.mark_ready()
        wf_a.note_arrival(a3)
        b3.mark_ready()
        wf_b.invalidate()
        self._views_match(wf_a, wf_b)
        # t3's deadline 4 and weight 3 take over both aggregates.
        assert wf_a.representative().deadline == 4
        assert wf_a.representative().weight == 3.0
        assert wf_a.head().txn_id == 3

    def test_note_shrunk_equals_resweep(self):
        (a1, _, _, wf_a), (b1, _, _, wf_b) = self._twins()
        a1.mark_running(0.0)
        a1.charge(2.0)
        wf_a.note_shrunk(a1)
        b1.mark_running(0.0)
        b1.charge(2.0)
        wf_b.invalidate()
        self._views_match(wf_a, wf_b)
        assert wf_a.representative().scheduling_remaining == 3.0

    def test_note_shrunk_swings_head(self):
        t1 = make_txn(1, length=5.0, deadline=9.0)
        t2 = make_txn(2, length=4.0, deadline=9.0)
        t1.mark_ready()
        t2.mark_ready()
        wf = Workflow(0, 1, {1: t1, 2: t2})
        # No dependency between them: both are head candidates and the
        # smaller believed remaining wins the (deadline, believed, id) key.
        assert wf.head().txn_id == 2
        t1.mark_running(0.0)
        t1.charge(3.0)
        wf.note_shrunk(t1)
        assert wf.head().txn_id == 1

    def test_note_truth_changed_refreshes_oracle_only(self):
        t1 = Transaction(
            1, arrival=0, length=6, deadline=9, length_estimate=5.0
        )
        t1.mark_ready()
        wf = Workflow(0, 1, {1: t1})
        before = wf.representative()
        assert before.remaining == 6
        t1.remaining += 2.0  # a stall adds ground-truth work
        wf.note_truth_changed()
        after = wf.representative()
        assert after.remaining == 8.0
        assert after.scheduling_remaining == before.scheduling_remaining

    def test_notes_on_dirty_workflow_defer_to_sweep(self):
        # A note landing while the workflow is already marked dirty must
        # not corrupt the pending sweep.
        (a1, _, a3, wf_a), (b1, _, b3, wf_b) = self._twins()
        wf_a.invalidate()
        a3.mark_ready()
        wf_a.note_arrival(a3)
        b3.mark_ready()
        wf_b.invalidate()
        self._views_match(wf_a, wf_b)
