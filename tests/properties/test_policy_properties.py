"""Property-based tests of policy-level guarantees.

These pin the *semantic* claims of Section III: ASETS degenerates to EDF
when everything is feasible and to SRPT/HDF when everything is tardy;
SRPT is optimal for mean response time on batch instances; HDF is optimal
for weighted tardiness when all deadlines are hopeless; ASETS* with
singleton workflows equals transaction-level ASETS.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.transaction import Transaction
from repro.core.workflow_set import WorkflowSet
from repro.policies import ASETSStar, EDF, HDF, SRPT, make_policy
from repro.sim.engine import Simulator
from tests.properties.test_differential import NaiveASETS

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def batch(draw, max_size=6, loose_deadlines=False, hopeless=False, weighted=False):
    """Transactions all arriving at t=0 with controlled deadline regimes."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    txns = []
    for i in range(n):
        length = draw(st.floats(min_value=0.5, max_value=10.0, **finite))
        weight = (
            draw(st.floats(min_value=0.5, max_value=10.0, **finite))
            if weighted
            else 1.0
        )
        if loose_deadlines:
            deadline = 1000.0 + length
        elif hopeless:
            deadline = draw(st.floats(min_value=0.0, max_value=0.4, **finite))
        else:
            slack = draw(st.floats(min_value=0.0, max_value=3.0, **finite))
            deadline = length * (1 + slack)
        txns.append(
            Transaction(i, arrival=0.0, length=length, deadline=deadline,
                        weight=weight)
        )
    return txns


def finishes(txns, policy):
    res = Simulator(txns, policy).run()
    return [r.finish for r in res.records]


@given(txns=batch(hopeless=True))
@settings(max_examples=30, deadline=None)
def test_asets_equals_srpt_when_all_tardy(txns):
    # "In the extreme case where all transactions are past their
    # deadlines, ASETS* is basically equivalent to SRPT."
    assert finishes(txns, make_policy("asets")) == finishes(txns, SRPT())


@given(txns=batch(loose_deadlines=True))
@settings(max_examples=30, deadline=None)
def test_asets_equals_edf_when_all_feasible(txns):
    # "In the other extreme case where all transactions can meet their
    # deadlines, ASETS* behaves like EDF."
    assert finishes(txns, make_policy("asets")) == finishes(txns, EDF())


@given(txns=batch(hopeless=True, weighted=True))
@settings(max_examples=30, deadline=None)
def test_weighted_asets_equals_hdf_when_all_tardy(txns):
    assert finishes(txns, make_policy("asets", weighted=True)) == finishes(txns, HDF())


@given(txns=batch(max_size=5))
@settings(max_examples=20, deadline=None)
def test_srpt_minimizes_mean_response_on_batches(txns):
    # Brute force all non-preemptive orders (optimal for a batch at t=0).
    res = Simulator(txns, SRPT()).run()
    srpt_total = sum(r.response_time for r in res.records)
    best = min(
        sum(
            itertools.accumulate(t.length for t in perm)
        )
        for perm in itertools.permutations(txns)
    )
    assert srpt_total <= best + 1e-6


@given(txns=batch(max_size=5, hopeless=True, weighted=True))
@settings(max_examples=20, deadline=None)
def test_hdf_minimizes_weighted_tardiness_among_orders_when_hopeless(txns):
    # With all deadlines at ~0, weighted tardiness ~ weighted completion
    # time, for which the density order (Smith's rule) is optimal.
    res = Simulator(txns, HDF()).run()
    hdf_value = res.total_weighted_tardiness
    best = float("inf")
    for perm in itertools.permutations(txns):
        t = 0.0
        total = 0.0
        for txn in perm:
            t += txn.length
            total += max(0.0, t - txn.deadline) * txn.weight
        best = min(best, total)
    assert hdf_value <= best + 1e-6


@given(txns=batch(max_size=8))
@settings(max_examples=20, deadline=None)
def test_asets_star_reduces_to_asets_on_singletons(txns):
    # Singleton workflows and unit weights: ASETS* is transaction-level
    # ASETS, checked against the independent rescan oracle.
    star = Simulator(
        txns,
        ASETSStar(),
        workflow_set=WorkflowSet.singletons(txns),
    ).run()
    flat = Simulator(txns, NaiveASETS()).run()
    assert [r.finish for r in star.records] == pytest.approx(
        [r.finish for r in flat.records]
    )


@given(txns=batch(max_size=6))
@settings(max_examples=20, deadline=None)
def test_tardiness_nonnegative_and_bounded(txns):
    # Tardiness of any work-conserving schedule is bounded by the batch
    # makespan (total work at t=0 arrivals).
    total = sum(t.length for t in txns)
    for policy in (EDF(), SRPT(), make_policy("asets")):
        res = Simulator(txns, policy).run()
        for r in res.records:
            assert 0.0 <= r.tardiness <= total + 1e-9
