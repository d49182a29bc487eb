"""Random workflow (dependency-chain) generation.

Section IV-A generates workflows from two parameters: the **maximum
workflow length** :math:`L_{max}` (chain length drawn uniformly from
:math:`\\{1..L_{max}\\}`) and the **maximum number of workflows**
:math:`W_{max}` a transaction may belong to (membership drawn uniformly
from :math:`\\{1..W_{max}\\}`).

The paper does not say *which* transactions are linked into a chain.  We
link **temporally adjacent** transactions: the members of one chain are
consecutive (in arrival order) transactions, mirroring the application
scenario of Section II-B where the transactions of one dynamic page are
submitted together when the user logs on.  Transactions keep their
individual Poisson arrival times (Table I's stated arrival process) and
their individual deadlines :math:`d_i = a_i + l_i + k_i l_i` (Table I's
stated formula) — which is exactly what produces the paper's
deadline/precedence *conflicts*: a dependent transaction arriving
moments after its predecessor can easily be due before it.

Planning algorithm: every transaction gets a membership budget
:math:`w_i \\sim U\\{1..W_{max}\\}`.  A sliding cursor walks the arrival
order; each step forms a chain from the next :math:`c \\sim U\\{1..L_{max}\\}`
transactions with remaining budget, links them in arrival order (edges
always point forward in the global order, so any union of chains is
acyclic), decrements their budgets, and advances the cursor by a random
offset inside the chain so that chains *overlap* when budgets allow —
that overlap is how one transaction comes to belong to several
workflows.  Every transaction joins at least one chain (a length-1 chain
is a singleton workflow, i.e. an independent transaction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import WorkloadError

__all__ = ["ChainPlan", "plan_chains"]


@dataclass(slots=True)
class ChainPlan:
    """The outcome of chain planning over one workload.

    Attributes
    ----------
    chains:
        Each chain is a list of transaction indices in arrival order,
        linked leaf-to-root: element ``j+1`` depends on element ``j``.
    depends_on:
        Dependency lists implied by the chains (direct predecessors only,
        each listed once; the transitive closure is the workflow), keyed
        by index for the transactions that have any: an independent one
        has no entry.
    """

    chains: list[list[int]] = field(default_factory=list)
    depends_on: dict[int, list[int]] = field(default_factory=dict)

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    def membership_count(self, index: int) -> int:
        """Number of chains transaction ``index`` was planned into."""
        return sum(1 for chain in self.chains if index in chain)

    def chain_lengths(self) -> list[int]:
        return [len(chain) for chain in self.chains]


def plan_chains(
    rng: random.Random,
    n: int,
    max_workflow_length: int,
    max_workflows_per_txn: int,
) -> ChainPlan:
    """Plan dependency chains over ``n`` transactions (see module docstring).

    Parameters
    ----------
    rng:
        Source of randomness.
    n:
        Number of transactions in the pool (indices 0..n-1, assumed to be
        in arrival order).
    max_workflow_length:
        :math:`L_{max} \\ge 1`.
    max_workflows_per_txn:
        :math:`W_{max} \\ge 1`.
    """
    if n < 1:
        raise WorkloadError("cannot plan chains over an empty workload")
    if max_workflow_length < 1 or max_workflows_per_txn < 1:
        raise WorkloadError("chain parameters must be >= 1")

    budget = [rng.randint(1, max_workflows_per_txn) for _ in range(n)]
    plan = ChainPlan()
    depends_on = plan.depends_on
    cursor = 0
    while cursor < n:
        target_len = rng.randint(1, max_workflow_length)
        members: list[int] = []
        i = cursor
        while i < n and len(members) < target_len:
            if budget[i] > 0:
                members.append(i)
            i += 1
        if not members:
            break
        plan.chains.append(members)
        for prev, succ in zip(members, members[1:]):
            preds = depends_on.get(succ)
            if preds is None:
                depends_on[succ] = [prev]
            elif prev not in preds:
                preds.append(prev)
        for m in members:
            budget[m] -= 1
        # Advance by a random offset within the chain so later chains can
        # overlap this one while the cursor still makes progress; skip
        # transactions whose budgets are exhausted.
        cursor = members[0] + rng.randint(1, len(members))
        while cursor < n and budget[cursor] == 0:
            cursor += 1

    return plan
