"""The paper's priority rules (Section II-C), on the one rank table.

Each static-key baseline ranks by its :class:`HeapScheduler` ``key``;
the density guard and the balance-aware aging order live in
:mod:`repro.policies.ordering`.  Smallest key = highest priority.
"""

from repro.policies import EDF, HDF, HVF, MIX, SRPT, LeastSlack
from repro.policies.ordering import aging_key, hdf_rank, latest_start, slack
from tests.conftest import make_txn


def test_edf_prefers_earlier_deadline():
    early = make_txn(1, deadline=5.0)
    late = make_txn(2, deadline=9.0)
    assert EDF().key(early) < EDF().key(late)


def test_srpt_prefers_shorter_remaining():
    short = make_txn(1, length=1.0)
    long = make_txn(2, length=9.0)
    assert SRPT().key(short) < SRPT().key(long)


def test_least_slack_returns_true_slack():
    # The heap key drops the shared clock: it is the latest start, and
    # key - now is the true slack.
    t = make_txn(length=3.0, deadline=10.0)
    d, r = t.deadline, t.scheduling_remaining
    assert LeastSlack().key(t) == latest_start(d, r) == 7.0
    assert LeastSlack().key(t) - 2.0 == slack(d, r, now=2.0) == 5.0


def test_hdf_prefers_higher_density():
    dense = make_txn(1, length=2.0, weight=8.0)   # density 4
    sparse = make_txn(2, length=4.0, weight=4.0)  # density 1
    assert HDF().key(dense) < HDF().key(sparse)


def test_hdf_reduces_to_srpt_with_unit_weights():
    # Same ordering as SRPT when weights are equal.
    a = make_txn(1, length=2.0)
    b = make_txn(2, length=5.0)
    assert (HDF().key(a) < HDF().key(b)) == (SRPT().key(a) < SRPT().key(b))


def test_hdf_exhausted_transaction_has_top_priority():
    t = make_txn(length=1.0)
    t.remaining = 0.0
    t.scheduling_remaining = 0.0
    assert HDF().key(t) == hdf_rank(t.weight, 0.0) == float("-inf")


def test_hvf_prefers_heavier():
    heavy = make_txn(1, weight=9.0)
    light = make_txn(2, weight=1.0)
    assert HVF().key(heavy) < HVF().key(light)


def test_mix_interpolates_between_edf_and_hvf():
    urgent_light = make_txn(1, deadline=5.0, weight=1.0)
    lax_heavy = make_txn(2, deadline=9.0, weight=9.0)
    # Pure deadline (tradeoff 0) favours the urgent one ...
    edf_like = MIX(tradeoff=0.0)
    assert edf_like.key(urgent_light) < edf_like.key(lax_heavy)
    # ... a strong value emphasis favours the heavy one.
    hvf_like = MIX(tradeoff=10.0)
    assert hvf_like.key(lax_heavy) < hvf_like.key(urgent_light)


def test_aging_prefers_high_weight_to_deadline_ratio():
    old_heavy = make_txn(1, deadline=10.0, weight=5.0)   # ratio 0.5
    new_light = make_txn(2, deadline=100.0, weight=5.0)  # ratio 0.05
    assert aging_key(old_heavy) < aging_key(new_light)


def test_aging_guards_nonpositive_deadline():
    t = make_txn(deadline=10.0)
    t.deadline = 0.0
    assert aging_key(t) == float("-inf")
