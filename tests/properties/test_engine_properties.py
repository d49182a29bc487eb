"""Property-based tests of the simulation engine's invariants.

Strategy: generate arbitrary small transaction pools (with optional
forward-pointing dependency edges) and check that every policy upholds
the physical invariants of a single work-conserving server.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.transaction import Transaction
from repro.policies.registry import available_policies, make_policy
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec
from tests.conftest import busy_time, run_segments

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def transaction_pools(draw, max_size=12, with_deps=False):
    n = draw(st.integers(min_value=1, max_value=max_size))
    txns = []
    for i in range(n):
        arrival = draw(st.floats(min_value=0.0, max_value=50.0, **finite))
        length = draw(st.floats(min_value=0.1, max_value=20.0, **finite))
        slack = draw(st.floats(min_value=0.0, max_value=3.0, **finite))
        weight = draw(st.floats(min_value=0.5, max_value=10.0, **finite))
        deps = []
        if with_deps and i > 0:
            deps = draw(
                st.lists(
                    st.integers(min_value=0, max_value=i - 1),
                    unique=True,
                    max_size=2,
                )
            )
        txns.append(
            Transaction(
                txn_id=i,
                arrival=arrival,
                length=length,
                deadline=arrival + length * (1 + slack),
                weight=weight,
                depends_on=deps,
            )
        )
    return txns


def _policy_names():
    return [n for n in available_policies() if n != "balance-aware"]


def _make(name):
    return make_policy(name)


# ---------------------------------------------------------------------------
# Invariants.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", _policy_names())
@given(txns=transaction_pools())
@settings(max_examples=25, deadline=None)
def test_every_transaction_completes(name, txns):
    res = Simulator(txns, _make(name)).run()
    assert res.n == len(txns)
    for record in res.records:
        assert record.finish >= record.arrival + record.length - 1e-6


@pytest.mark.parametrize("name", ["edf", "srpt", "asets", "asets-star"])
@given(txns=transaction_pools(with_deps=True))
@settings(max_examples=25, deadline=None)
def test_dependencies_respected(name, txns):
    res = Simulator(txns, _make(name)).run()
    by_id = {t.txn_id: t for t in txns}
    finish = {r.txn_id: r.finish for r in res.records}
    start = {r.txn_id: r.first_start for r in res.records}
    for txn in txns:
        for dep in txn.depends_on:
            assert start[txn.txn_id] >= finish[dep] - 1e-9
    # No transaction starts before it arrives.
    for txn in txns:
        assert start[txn.txn_id] >= by_id[txn.txn_id].arrival - 1e-9


@pytest.mark.parametrize("name", ["fcfs", "edf", "srpt", "asets"])
@given(txns=transaction_pools())
@settings(max_examples=25, deadline=None)
def test_work_conservation(name, txns):
    # The server is never idle while work is available: total busy time
    # equals total work, and within any busy period completions are
    # back-to-back.  We verify via the event log's segments: their
    # durations sum to the total work and they never overlap.
    _, segments = run_segments(txns, _make(name))
    total_work = sum(t.length for t in txns)
    assert busy_time(segments) == pytest.approx(total_work, rel=1e-6)
    for a, b in zip(segments, segments[1:]):
        assert b.start >= a.end - 1e-9


@pytest.mark.parametrize("name", ["fcfs", "edf", "srpt", "asets"])
@given(txns=transaction_pools())
@settings(max_examples=25, deadline=None)
def test_idle_only_when_nothing_ready(name, txns):
    _, segments = run_segments(txns, _make(name))
    arrivals = sorted(t.arrival for t in txns)
    for a, b in zip(segments, segments[1:]):
        if b.start > a.end + 1e-9:
            # A gap must coincide with "no pending work": some arrival
            # must occur exactly at the gap's end.
            assert any(abs(t - b.start) < 1e-6 for t in arrivals)


@given(txns=transaction_pools())
@settings(max_examples=25, deadline=None)
def test_edf_meets_deadlines_when_feasible_schedule_exists(txns):
    # Classic EDF optimality: if EDF misses a deadline, check the load
    # bound certificate - there must exist an interval [r, d] whose demand
    # exceeds its length.  We assert the contrapositive on instances where
    # demand never exceeds capacity for any deadline horizon.
    res = Simulator(txns, make_policy("edf")).run()
    if res.average_tardiness > 1e-9:
        # Find a witness: some deadline d with total demand of
        # transactions arriving in [r, d] exceeding d - r.
        witnesses = []
        points = sorted({t.arrival for t in txns})
        deadlines = sorted({t.deadline for t in txns})
        for r in points:
            for d in deadlines:
                if d <= r:
                    continue
                demand = sum(
                    t.length
                    for t in txns
                    if t.arrival >= r and t.deadline <= d
                )
                if demand > (d - r) + 1e-9:
                    witnesses.append((r, d))
        assert witnesses, "EDF missed a deadline on a feasible instance"


@pytest.mark.parametrize("name", ["edf", "srpt", "asets"])
@given(txns=transaction_pools())
@settings(max_examples=20, deadline=None)
def test_replay_determinism(name, txns):
    first = Simulator(txns, _make(name)).run()
    second = Simulator(txns, _make(name)).run()
    assert [r.finish for r in first.records] == [r.finish for r in second.records]


@pytest.mark.parametrize("name", ["edf", "srpt", "asets", "asets-star"])
@given(txns=transaction_pools(with_deps=True))
@settings(max_examples=20, deadline=None)
def test_schedules_pass_the_validator(name, txns):
    # End-to-end invariant bundle: every produced schedule must satisfy
    # arrival, precedence, capacity and work-total constraints.
    from repro.sim.validation import validate_schedule

    _, segments = run_segments(txns, _make(name))
    validate_schedule(segments, txns)


# ---------------------------------------------------------------------------
# Metamorphic oracle: power-of-two time scaling.
# ---------------------------------------------------------------------------

_SCALE_EXPONENTS = [-3, -2, -1, 1, 2, 3]


def _scaled_policy(name, k):
    """A fresh registry policy whose time-valued parameters scale by 2**k.

    MIX ranks by ``d - tradeoff * w``, so ``tradeoff`` carries time units;
    balance-aware's ``time_rate`` is activations per time unit.
    """
    if name == "mix":
        return make_policy(name, tradeoff=math.ldexp(1.0, k))
    if name == "balance-aware":
        return make_policy(name, time_rate=math.ldexp(0.01, -k))
    return make_policy(name)


def _scaled_pool(txns, k):
    return [
        Transaction(
            txn_id=t.txn_id,
            arrival=math.ldexp(t.arrival, k),
            length=math.ldexp(t.length, k),
            deadline=math.ldexp(t.deadline, k),
            weight=t.weight,
            depends_on=t.depends_on,
            length_estimate=math.ldexp(t.length_estimate, k),
        )
        for t in txns
    ]


@pytest.fixture(scope="module")
def scaling_inputs():
    """Fault-free inputs with exact estimates, with and without workflows."""
    inputs = []
    for with_workflows in (False, True):
        spec = WorkloadSpec(
            n_transactions=120,
            utilization=0.9,
            weighted=True,
            with_workflows=with_workflows,
        )
        for seed in (1, 2):
            inputs.append(generate(spec, seed).transactions)
    return inputs


@pytest.mark.parametrize("name", available_policies())
def test_power_of_two_time_scaling_is_exact(name, scaling_inputs):
    # Multiplying every time quantity by 2**k is exact in binary floating
    # point, so each sum, difference and comparison the engine and the
    # policy make is the unscaled one times 2**k.  The decision sequence
    # must not move, and tardiness must scale to the bit.  This needs no
    # second implementation: a tie-break, cache or tolerance that leaks
    # absolute time breaks it.
    from repro.sim.validation import validate_schedule

    def finish_order(result):
        ordered = sorted(result.records, key=lambda r: (r.finish, r.txn_id))
        return [r.txn_id for r in ordered]

    for txns in scaling_inputs:
        base_pool = _scaled_pool(txns, 0)
        base, segments = run_segments(base_pool, _scaled_policy(name, 0))
        validate_schedule(segments, base_pool)
        for k in _SCALE_EXPONENTS:
            res = Simulator(_scaled_pool(txns, k), _scaled_policy(name, k)).run()
            assert finish_order(res) == finish_order(base), f"k={k}"
            assert res.scheduling_points == base.scheduling_points, f"k={k}"
            assert res.total_preemptions == base.total_preemptions, f"k={k}"
            assert res.average_tardiness == math.ldexp(
                base.average_tardiness, k
            ), f"k={k}"
