"""Property-based invariants for the multi-server engine extension."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.policies import ASETS, EDF, FCFS, SRPT
from repro.sim.engine import Simulator
from tests.conftest import busy_time, run_segments
from tests.properties.test_engine_properties import transaction_pools


@pytest.mark.parametrize("policy_cls", [EDF, SRPT, ASETS, FCFS])
@given(txns=transaction_pools(), servers=st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_all_complete_under_any_server_count(policy_cls, txns, servers):
    res = Simulator(txns, policy_cls(), servers=servers).run()
    assert res.n == len(txns)


@pytest.mark.parametrize("policy_cls", [EDF, SRPT, ASETS])
@given(txns=transaction_pools(), servers=st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_capacity_never_exceeded(policy_cls, txns, servers):
    # At no point in time may more than ``servers`` transactions be
    # executing: checked from the event log's segments via a sweep over
    # their endpoints.
    _, segments = run_segments(txns, policy_cls(), servers=servers)
    events = []
    for seg in segments:
        events.append((seg.start, 1))
        events.append((seg.end, -1))
    events.sort(key=lambda e: (e[0], e[1]))  # ends before starts at ties
    active = 0
    for _, delta in events:
        active += delta
        assert active <= servers


@pytest.mark.parametrize("policy_cls", [EDF, SRPT])
@given(txns=transaction_pools())
@settings(max_examples=15, deadline=None)
def test_no_transaction_runs_on_two_servers(policy_cls, txns):
    # A transaction's own segments never overlap each other.
    _, segments = run_segments(txns, policy_cls(), servers=3)
    for txn in txns:
        own = [seg for seg in segments if seg.txn_id == txn.txn_id]
        for a, b in zip(own, own[1:]):
            assert b.start >= a.end - 1e-9


@pytest.mark.parametrize("policy_cls", [EDF, SRPT, ASETS])
@given(txns=transaction_pools())
@settings(max_examples=15, deadline=None)
def test_total_work_preserved(policy_cls, txns):
    _, segments = run_segments(txns, policy_cls(), servers=2)
    total = sum(t.length for t in txns)
    assert busy_time(segments) == pytest.approx(total, rel=1e-6)


@given(txns=transaction_pools(max_size=8))
@settings(max_examples=15, deadline=None)
def test_more_servers_never_increase_makespan(txns):
    # Not a theorem for arbitrary schedulers, but FCFS in this engine is
    # non-idling and non-preemptive in arrival order, for which extra
    # servers can only help makespan.
    one = Simulator(txns, FCFS(), servers=1).run().makespan
    many = Simulator(txns, FCFS(), servers=3).run().makespan
    assert many <= one + 1e-9
