"""Golden schedules of the transaction-level policies ``asets`` and ``ready``.

Each case replays one seeded pool and hashes the ``(txn_id, outcome,
finish)`` of every record.  The digests were captured from the two-list
ASETS implementation that preceded ASETS-over-singletons, so they pin
that the rewrite took every decision the same way: weighted and
unweighted pools, ``weighted=`` on and off, with and without the chaos
target's fault plan.  ``asets`` runs independent pools, ``ready`` the
dependent pools of Figure 14.
"""

import hashlib
import json

import pytest

from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.faults import FaultSpec
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

#: The ``chaos`` target's default plan, seeded.
CHAOS = FaultSpec(
    seed=5,
    abort_prob=0.1,
    max_retries=2,
    stall_prob=0.1,
    stall_max=1.0,
    crash_count=1,
)


def digest(policy, weighted_pool, weighted, faults):
    spec = WorkloadSpec(
        n_transactions=400,
        utilization=1.0,
        weighted=weighted_pool,
        with_workflows=policy == "ready",
        max_workflow_length=5,
        max_workflows_per_txn=1,
    )
    result = run_policy_on(
        generate(spec, seed=2),
        PolicySpec.of(policy, weighted=weighted),
        faults=CHAOS if faults else None,
    )
    rows = [(r.txn_id, r.outcome, repr(r.finish)) for r in result.records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


#: (policy, weighted pool, weighted=, faults) -> digest.
GOLDEN = {
    ("asets", False, False, False): "7a1a9a9fb5def2bf",
    ("asets", False, False, True): "48060006731bdca8",
    ("asets", False, True, False): "7a1a9a9fb5def2bf",
    ("asets", False, True, True): "48060006731bdca8",
    ("asets", True, False, False): "7a1a9a9fb5def2bf",
    ("asets", True, False, True): "48060006731bdca8",
    ("asets", True, True, False): "a47ede84840148ef",
    ("asets", True, True, True): "a273db9c7fb3a8f4",
    ("ready", False, False, False): "9beb87c94f35d8e3",
    ("ready", False, False, True): "e770e6bb7da45db7",
    ("ready", False, True, False): "9beb87c94f35d8e3",
    ("ready", False, True, True): "e770e6bb7da45db7",
    ("ready", True, False, False): "9beb87c94f35d8e3",
    ("ready", True, False, True): "e770e6bb7da45db7",
    ("ready", True, True, False): "8f09511e7292f1e8",
    ("ready", True, True, True): "17c564b932c2fbca",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_schedule_matches_golden_digest(case):
    assert digest(*case) == GOLDEN[case]
