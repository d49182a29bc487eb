"""Unit tests for transaction-level ASETS: lists, migration, decision.

List membership is read through the reference rescan's
:func:`~tests.policies.asets_star_oracle.edf_list` /
:func:`~tests.policies.asets_star_oracle.hdf_list` over the policy's
singleton view: ASETS keeps no list of its own to introspect.
"""

from repro.core.transaction import Transaction
from repro.policies import make_policy
from repro.policies.asets import ASETS
from repro.policies.ordering import negative_impact_edf, negative_impact_srpt
from repro.sim.engine import Simulator
from tests.conftest import make_txn
from tests.policies import asets_star_oracle as oracle


def feed(policy, txns, now=0.0):
    policy.bind(txns, None)
    for t in txns:
        t.mark_ready()
        policy.on_ready(t, now)


def edf_list(policy, now):
    return [wf.head() for wf in oracle.edf_list(policy, now)]


def srpt_list(policy, now):
    return [wf.head() for wf in oracle.hdf_list(policy, now)]


class TestNegativeImpact:
    def test_edf_impact_is_its_remaining_time(self):
        assert negative_impact_edf(5.0) == 5.0

    def test_srpt_impact_subtracts_slack(self):
        assert negative_impact_srpt(3.0, 2.0) == 1.0

    def test_weighted_scaling(self):
        # Figure 7 lines 15-16: scale by the *other* side's weight.
        assert negative_impact_edf(5.0, w_srpt=2.0) == 10.0
        assert negative_impact_srpt(3.0, 1.0, w_edf=4.0) == 8.0


class TestListMembership:
    def test_feasible_transaction_starts_on_edf_list(self):
        policy = ASETS()
        t = make_txn(1, length=3.0, deadline=10.0)
        feed(policy, [t])
        assert edf_list(policy, 0.0) == [t]
        assert srpt_list(policy, 0.0) == []

    def test_tardy_transaction_goes_to_srpt_list(self):
        policy = ASETS()
        t = make_txn(1, length=3.0, deadline=2.0, arrival=0.0)
        feed(policy, [t])
        assert edf_list(policy, 0.0) == []
        assert srpt_list(policy, 0.0) == [t]

    def test_migration_when_latest_start_passes(self):
        # Definitions 6/7: a waiting transaction moves EDF -> SRPT when
        # the clock passes d - r.
        policy = ASETS()
        t = make_txn(1, length=3.0, deadline=10.0)
        feed(policy, [t])
        assert edf_list(policy, 7.0) == [t]   # boundary: still feasible
        assert srpt_list(policy, 7.1) == [t]  # now migrated
        assert edf_list(policy, 7.1) == []

    def test_lists_are_sorted(self):
        policy = ASETS()
        a = make_txn(1, length=1.0, deadline=9.0)
        b = make_txn(2, length=1.0, deadline=5.0)
        c = make_txn(3, length=4.0, deadline=1.0)  # tardy
        d = make_txn(4, length=2.0, deadline=1.0)  # tardy, shorter
        feed(policy, [a, b, c, d])
        assert edf_list(policy, 0.0) == [b, a]
        assert srpt_list(policy, 0.0) == [d, c]


class TestDecision:
    def test_empty_policy_selects_none(self):
        assert ASETS().select(0.0) is None

    def test_pure_edf_when_all_feasible(self):
        policy = ASETS()
        a = make_txn(1, length=3.0, deadline=20.0)
        b = make_txn(2, length=5.0, deadline=10.0)
        feed(policy, [a, b])
        assert policy.select(0.0) is b  # earliest deadline

    def test_pure_srpt_when_all_tardy(self):
        policy = ASETS()
        a = make_txn(1, length=5.0, deadline=1.0)
        b = make_txn(2, length=3.0, deadline=1.0)
        feed(policy, [a, b])
        assert policy.select(0.0) is b  # shortest remaining

    def test_equation_1_srpt_wins(self):
        # Example 2: r_edf=5 vs r_srpt - s_edf = 3 - 2 = 1 -> SRPT first.
        policy = ASETS()
        t_srpt = make_txn(1, length=3.0, deadline=2.9)
        t_edf = make_txn(2, length=5.0, deadline=7.0)
        feed(policy, [t_srpt, t_edf])
        assert policy.select(0.0) is t_srpt

    def test_equation_1_edf_wins(self):
        # Example 3: r_edf=2 < r_srpt - s_edf = 3 - 0 -> EDF first.
        policy = ASETS()
        t_srpt = make_txn(1, length=3.0, deadline=2.9)
        t_edf = make_txn(2, length=2.0, deadline=2.0)
        feed(policy, [t_srpt, t_edf])
        assert policy.select(0.0) is t_edf

    def test_tie_goes_to_srpt_side(self):
        # Figure 7: EDF runs only on strict inequality.
        policy = ASETS()
        t_srpt = make_txn(1, length=3.0, deadline=1.0)   # tardy
        t_edf = make_txn(2, length=3.0, deadline=3.0)    # slack 0
        feed(policy, [t_srpt, t_edf])
        # NI_edf = 3, NI_srpt = 3 - 0 = 3: tie -> SRPT.
        assert policy.select(0.0) is t_srpt


class TestWeightedVariant:
    def test_srpt_list_becomes_hdf(self):
        policy = ASETS(weighted=True)
        light_short = make_txn(1, length=2.0, deadline=0.5, weight=1.0)
        heavy_long = make_txn(2, length=4.0, deadline=0.5, weight=8.0)
        feed(policy, [light_short, heavy_long])
        # Density 2.0 beats 0.5 even though it is longer.
        assert srpt_list(policy, 0.0) == [heavy_long, light_short]

    def test_decision_scales_by_weights(self):
        policy = ASETS(weighted=True)
        # Unweighted rule would run EDF (2 < 3-0); a heavy SRPT-side
        # transaction flips it: NI_edf = 2*10 = 20 > NI_srpt = 3*1 = 3.
        t_srpt = make_txn(1, length=3.0, deadline=1.0, weight=10.0)
        t_edf = make_txn(2, length=2.0, deadline=2.0, weight=1.0)
        feed(policy, [t_srpt, t_edf])
        assert policy.select(0.0) is t_srpt


class TestStaleEntryHandling:
    def test_completed_transactions_are_skipped(self):
        policy = ASETS()
        a = make_txn(1, length=1.0, deadline=10.0)
        b = make_txn(2, length=1.0, deadline=20.0)
        feed(policy, [a, b])
        a.mark_running(0.0)
        a.charge(1.0)
        a.mark_completed(1.0)
        policy.on_completion(a, 1.0)
        assert policy.select(1.0) is b

    def test_requeue_after_partial_run_updates_srpt_key(self):
        policy = ASETS()
        a = make_txn(1, length=6.0, deadline=1.0)  # tardy
        b = make_txn(2, length=5.0, deadline=1.0)  # tardy, shorter
        feed(policy, [a, b])
        assert policy.select(0.0) is b
        b.mark_running(0.0)
        b.charge(4.0)  # remaining 1.0
        b.mark_suspended()
        policy.on_requeue(b, 4.0)
        assert policy.select(4.0) is b
        assert srpt_list(policy, 4.0) == [b, a]

    def test_migration_entry_staleness(self):
        # A transaction that ran keeps its EDF membership consistent: the
        # stale migration threshold (computed from the old remaining time)
        # must not evict it early.
        policy = ASETS()
        t = make_txn(1, length=6.0, deadline=10.0)  # latest start 4
        feed(policy, [t])
        t.mark_running(0.0)
        t.charge(5.0)  # remaining 1 -> latest start now 9
        t.mark_suspended()
        policy.on_requeue(t, 5.0)
        assert edf_list(policy, 5.0) == [t]
        assert edf_list(policy, 8.9) == [t]
        assert srpt_list(policy, 9.5) == [t]


class TestSingletonView:
    def test_unweighted_policy_reads_unit_weights(self):
        # A weighted pool must not leak into unweighted ASETS: the heavy
        # long transaction would win HDF order, but SRPT order runs the
        # short one first.
        policy = ASETS()
        light_short = make_txn(1, length=2.0, deadline=0.5, weight=1.0)
        heavy_long = make_txn(2, length=4.0, deadline=0.5, weight=8.0)
        feed(policy, [light_short, heavy_long])
        assert srpt_list(policy, 0.0) == [light_short, heavy_long]
        assert policy.select(0.0) is light_short

    def test_equal_deadlines_tie_by_arrival_not_id(self):
        # Ids in reverse arrival order: txn 1 arrives first and runs;
        # txn 0 arrives at 0.5 with the same deadline.  The tie goes to
        # the earlier arrival (the transaction-level tie-break), so the
        # incumbent finishes first.  Numbering singletons by id would
        # preempt it for txn 0.
        early = Transaction(1, arrival=0.0, length=1.0, deadline=10.0)
        late = Transaction(0, arrival=0.5, length=1.0, deadline=10.0)
        result = Simulator([early, late], make_policy("asets")).run()
        finish = {r.txn_id: r.finish for r in result.records}
        assert finish == {1: 1.0, 0: 2.0}
