"""Slack, feasibility and latest start: the ordering table's predicates.

Definition 2 (slack), Definitions 6/7 (EDF-/SRPT-List membership) and the
migration threshold are spelled once, in :mod:`repro.policies.ordering`,
over plain ``(deadline, scheduling_remaining, now)`` floats, so they
apply to transactions and representative views alike.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.workflow import RepresentativeView
from repro.policies.ordering import feasible_at, latest_start, slack
from tests.conftest import make_txn

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_slack_matches_method():
    # Definition 2, s = d - (t + r), on the believed remaining time.
    t = make_txn(length=3.0, deadline=10.0)
    d, r = t.deadline, t.scheduling_remaining
    assert slack(d, r, now=2.0) == d - (2.0 + r) == 5.0


def test_helpers_work_on_representative_views():
    rep = RepresentativeView(deadline=10, remaining=4, weight=1)
    d, r = rep.deadline, rep.scheduling_remaining
    assert slack(d, r, now=0) == 6
    assert latest_start(d, r) == 6
    assert feasible_at(d, r, now=6)
    assert not feasible_at(d, r, now=6.1)


def test_boundary_inclusion():
    # EDF-List membership is inclusive at t + r == d (Definition 6).
    t = make_txn(length=5.0, deadline=5.0, arrival=0.0)
    assert feasible_at(t.deadline, t.scheduling_remaining, now=0.0)
    assert slack(t.deadline, t.scheduling_remaining, now=0.0) == 0.0


def test_slack_adds_the_clock_to_the_remaining_time_first():
    # d - (t + r), not (d - r) - t: the two round differently here.
    assert slack(1.0, 0.2, now=0.1) == 1.0 - (0.1 + 0.2)
    assert slack(1.0, 0.2, now=0.1) != (1.0 - 0.2) - 0.1


@given(deadline=finite, remaining=finite, now=finite)
def test_feasible_exactly_when_slack_is_non_negative(deadline, remaining, now):
    # The sign of a rounded difference is exact, so the membership test
    # and the slack never disagree, not even by an ulp.
    assert feasible_at(deadline, remaining, now) == (
        slack(deadline, remaining, now) >= 0.0
    )
