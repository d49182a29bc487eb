"""Finish-time digests for the decisions that read slack or feasibility.

Shedding by feasibility ranks ready work by believed slack, and
balance-aware's ``tardy_only`` draws :math:`T_{old}` from the infeasible
ready transactions only.  Each case pins a digest of every record's
``(txn_id, finish, outcome)`` for one n=400 run, so any change in how
those predicates are spelled that moves a single decision shows here.
The shed-by-weight run rides along as the control: it reads no slack.
"""

import hashlib

import pytest

from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.faults import FaultSpec
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

CASES = {
    "shed-weight": (
        "edf",
        {},
        FaultSpec(backlog_limit=20, shed_policy="weight"),
        "c0569e61143997ff19b34c435d6ff12e9af6da5be34fc0453a8d19adb781d04f",
    ),
    "shed-feasibility": (
        "edf",
        {},
        FaultSpec(backlog_limit=20, shed_policy="feasibility"),
        "ecd7d0367de2133795037a1d162203fe8cb3bd7d104d04e586668146bb6b7da5",
    ),
    "balance-aware-tardy-only": (
        "balance-aware",
        {"time_rate": 0.5, "tardy_only": True},
        None,
        "88a5f38ed62b69cb3288a65133074201cd2c9659ff2d94684a56990502bb43b4",
    ),
}


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(n_transactions=400, utilization=1.2, weighted=True)
    return generate(spec, seed=1)


def digest(result):
    rows = [(r.txn_id, r.finish, r.outcome) for r in result.records]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_finish_times_match_the_pinned_digest(workload, case):
    name, kwargs, faults, expected = CASES[case]
    result = run_policy_on(workload, PolicySpec.of(name, **kwargs), faults=faults)
    if faults is not None:
        assert result.shed_count > 0  # the guard actually fired
    assert digest(result) == expected
