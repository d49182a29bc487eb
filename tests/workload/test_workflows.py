"""Unit tests for the chain planner."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.workflows import plan_chains


class TestValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(WorkloadError):
            plan_chains(random.Random(0), 0, 5, 1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            plan_chains(random.Random(0), 10, 0, 1)
        with pytest.raises(WorkloadError):
            plan_chains(random.Random(0), 10, 5, 0)


class TestChainStructure:
    def test_chain_lengths_bounded(self):
        plan = plan_chains(random.Random(1), 200, max_workflow_length=5,
                           max_workflows_per_txn=1)
        assert all(1 <= c <= 5 for c in plan.chain_lengths())

    def test_every_transaction_covered(self):
        plan = plan_chains(random.Random(2), 150, 7, 3)
        covered = {i for chain in plan.chains for i in chain}
        assert covered == set(range(150))

    def test_membership_bounded_by_w_max(self):
        for w_max in (1, 2, 4):
            plan = plan_chains(random.Random(3), 100, 5, w_max)
            for i in range(100):
                assert 1 <= plan.membership_count(i) <= w_max

    def test_w_max_one_gives_disjoint_chains(self):
        plan = plan_chains(random.Random(4), 100, 5, 1)
        seen: set[int] = set()
        for chain in plan.chains:
            assert not (set(chain) & seen)
            seen.update(chain)

    def test_chains_in_index_order(self):
        # Dependencies must point forward in arrival order.
        plan = plan_chains(random.Random(5), 100, 8, 2)
        for chain in plan.chains:
            assert chain == sorted(chain)

    def test_depends_on_matches_chains(self):
        plan = plan_chains(random.Random(6), 60, 4, 1)
        for chain in plan.chains:
            for prev, succ in zip(chain, chain[1:]):
                assert prev in plan.depends_on[succ]

    def test_members_temporally_adjacent(self):
        # With W_max=1 every chain spans a short index window, not the
        # whole pool (members are consecutive budgeted indices).
        plan = plan_chains(random.Random(7), 500, 5, 1)
        for chain in plan.chains:
            assert chain[-1] - chain[0] <= len(chain)  # contiguous when W=1

    def test_union_is_acyclic(self):
        plan = plan_chains(random.Random(8), 120, 6, 4)
        # Forward-pointing edges guarantee acyclicity; verify by toposort.
        indegree = {i: len(plan.depends_on.get(i, ())) for i in range(120)}
        dependents = {i: [] for i in range(120)}
        for succ, preds in plan.depends_on.items():
            for p in preds:
                dependents[p].append(succ)
        frontier = [i for i, d in indegree.items() if d == 0]
        seen = 0
        while frontier:
            i = frontier.pop()
            seen += 1
            for s in dependents[i]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    frontier.append(s)
        assert seen == 120

    def test_deterministic_given_seed(self):
        a = plan_chains(random.Random(9), 80, 5, 2)
        b = plan_chains(random.Random(9), 80, 5, 2)
        assert a.chains == b.chains

    def test_single_transaction_pool(self):
        plan = plan_chains(random.Random(0), 1, 5, 3)
        assert plan.chains[0] == [0]
        assert plan.depends_on == {}  # only dependents get an entry

    def test_length_one_chains_possible(self):
        # L_max = 1: every workflow is a singleton.
        plan = plan_chains(random.Random(1), 50, 1, 1)
        assert all(len(c) == 1 for c in plan.chains)
        assert plan.depends_on == {}
