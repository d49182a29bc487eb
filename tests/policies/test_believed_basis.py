"""ASETS* must rank by *believed* remaining time, never ground truth.

Regression tests for the oracle leak where ``ASETSStar.select`` and
``hdf_list`` read ``rep.remaining`` (the engine's true remaining time)
instead of ``rep.scheduling_remaining`` (the estimate-based belief).
With exact estimates the two coincide and the leak is invisible; every
scenario here injects an inexact ``length_estimate`` so the pre-fix code
provably picks a *different* transaction (asserted in comments below;
revert the three sites in ``asets_star.py`` to ``rep.remaining`` and
these tests fail).
"""

from repro.core.transaction import Transaction
from repro.core.workflow_set import WorkflowSet
from repro.policies import ASETSStar
from tests.policies.asets_star_oracle import edf_list, hdf_list


def submit_all(policy, txns, now=0.0):
    """Bind, arrive and mark every (independent) transaction ready."""
    ws = WorkflowSet(txns)
    policy.bind(txns, ws)
    for t in txns:
        policy.on_arrival(t, now)
        t.mark_ready()
        policy.on_ready(t, now)
        ws.notify_changed(t.txn_id)
    return ws


class TestSelectUsesBelievedFeasibility:
    def test_underestimated_workflow_stays_on_edf_list(self):
        # A: true length 20 but the scheduler believes 5; deadline 8.9.
        #   believed basis: 0 + 5 <= 8.9 -> EDF-List.
        #   ground truth:   0 + 20 > 8.9 -> HDF-List.
        # B: exact length 8, deadline 9, weight 100.
        a = Transaction(
            1, arrival=0.0, length=20.0, deadline=8.9, length_estimate=5.0
        )
        b = Transaction(2, arrival=0.0, length=8.0, deadline=9.0, weight=100.0)
        policy = ASETSStar()
        submit_all(policy, [a, b])

        # Believed: both feasible, both on the EDF-List, and A's earlier
        # deadline (8.9 < 9) wins.  Pre-fix: A lands on the HDF-List, the
        # Figure 7 comparison runs with NI(B)=8*1=8 < NI(A)=(5-1)*100=400,
        # and B is selected instead.
        assert [wf.wf_id for wf in edf_list(policy, 0.0)] == sorted(
            wf.wf_id for wf in edf_list(policy, 0.0)
        )
        assert len(edf_list(policy, 0.0)) == 2
        assert hdf_list(policy, 0.0) == []
        assert policy.select(0.0) is a

    def test_exact_estimates_unchanged(self):
        # Sanity: with exact estimates belief == truth, B's infeasible
        # 20-length twin goes to the HDF-List either way.
        a = Transaction(1, arrival=0.0, length=20.0, deadline=8.9)
        b = Transaction(2, arrival=0.0, length=8.0, deadline=9.0, weight=100.0)
        policy = ASETSStar()
        submit_all(policy, [a, b])
        assert len(edf_list(policy, 0.0)) == 1
        assert len(hdf_list(policy, 0.0)) == 1
        assert policy.select(0.0) is b


class TestHdfListUsesBelievedDensity:
    def test_density_order_follows_beliefs(self):
        # Both tardy (believed) at t=0 with deadline 1; equal weights.
        # A: true 10, believed 2  -> believed density 1/2  (true: 1/10)
        # B: true 4,  believed 5  -> believed density 1/5  (true: 1/4)
        # Believed order: A before B.  Pre-fix (true densities): B first.
        a = Transaction(
            1, arrival=0.0, length=10.0, deadline=1.0, length_estimate=2.0
        )
        b = Transaction(
            2, arrival=0.0, length=4.0, deadline=1.0, length_estimate=5.0
        )
        policy = ASETSStar()
        submit_all(policy, [a, b])
        assert edf_list(policy, 0.0) == []
        hdf = hdf_list(policy, 0.0)
        assert [wf.head().txn_id for wf in hdf] == [1, 2]
        # select must agree with the list order's winner.
        assert policy.select(0.0) is a


class TestDecideUsesBelievedBasisConsistently:
    def test_figure7_ni_comparison_under_estimate_error(self):
        # E: true 2, believed 6, deadline 10 -> EDF-List (0 + 6 <= 10).
        # H: exact 12, deadline 1           -> HDF-List (0 + 12 > 1).
        # Believed basis throughout Figure 7 (unit weights):
        #   NI(E) = r_head(E)               = 6
        #   NI(H) = r_head(H) - slack(E)    = 12 - (10 - 6) = 8
        #   6 < 8 -> run E's head.
        # Mixing in E's ground-truth slack (10 - 2 = 8) instead gives
        # NI(H) = 12 - 8 = 4 < 6 and flips the decision to H.
        e = Transaction(
            1, arrival=0.0, length=2.0, deadline=10.0, length_estimate=6.0
        )
        h = Transaction(2, arrival=0.0, length=12.0, deadline=1.0)
        policy = ASETSStar()
        submit_all(policy, [e, h])
        assert [wf.head().txn_id for wf in edf_list(policy, 0.0)] == [1]
        assert [wf.head().txn_id for wf in hdf_list(policy, 0.0)] == [2]
        assert policy.select(0.0) is e
