"""Top-level workload generation.

Composes the samplers of this subpackage into the paper's pipeline
(Section IV-A): lengths first, then Poisson arrivals at the target
utilization, then deadlines, weights and (optionally) dependency chains.

Every transaction — whether independent or part of a workflow — arrives
individually from a Poisson process with rate
``utilization / mean_length`` and receives the deadline
:math:`d_i = a_i + l_i + k_i l_i`, exactly as Table I states.  Workflow
workloads additionally link temporally adjacent transactions into
dependency chains (see :mod:`repro.workload.workflows`), which is what
creates the paper's deadline/precedence conflicts.

Randomness is split into independent substreams — one per aspect, derived
deterministically from the caller's seed — so changing, say, ``k_max``
perturbs only the deadlines while lengths and arrivals stay identical
across configurations, which keeps the figure sweeps comparable just like
reusing the same trace in the authors' simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.transaction import Transaction
from repro.core.workflow_set import WorkflowSet
from repro.errors import WorkloadError
from repro.workload.arrivals import arrival_rate, poisson_arrivals
from repro.workload.deadlines import assign_deadlines
from repro.workload.estimates import sample_estimates
from repro.workload.spec import WorkloadSpec
from repro.workload.weights import sample_weights
from repro.workload.workflows import plan_chains
from repro.workload.zipf import ZipfSampler

__all__ = ["Workload", "generate"]

# Fixed offsets that decorrelate the per-aspect random substreams.
_STREAM_LENGTHS = 0x5EED_0001
_STREAM_ARRIVALS = 0x5EED_0002
_STREAM_DEADLINES = 0x5EED_0003
_STREAM_WEIGHTS = 0x5EED_0004
_STREAM_CHAINS = 0x5EED_0005
_STREAM_ESTIMATES = 0x5EED_0006


@dataclass(slots=True)
class Workload:
    """A generated workload plus the metadata experiments report.

    ``transactions`` are ordered by id, which equals arrival order.
    ``workflow_set`` is ``None`` for independent workloads.  ``rate`` is
    the per-transaction Poisson arrival rate.
    """

    spec: WorkloadSpec
    seed: int
    transactions: list[Transaction]
    workflow_set: WorkflowSet | None
    mean_length: float
    rate: float

    @property
    def n(self) -> int:
        return len(self.transactions)

    def reset(self) -> None:
        """Reset every transaction for replay under another policy."""
        for txn in self.transactions:
            txn.reset()
        if self.workflow_set is not None:
            for wf in self.workflow_set:
                wf.invalidate()

    def total_work(self) -> float:
        """Sum of all transaction lengths (server-time demand)."""
        return sum(txn.length for txn in self.transactions)

    def realized_utilization(self) -> float:
        """Offered load over the arrival span: total work / time horizon.

        A finite-sample estimate that fluctuates around
        ``spec.utilization`` run to run.
        """
        horizon = max(txn.arrival for txn in self.transactions)
        if horizon <= 0:
            return float("inf")
        return self.total_work() / horizon


def _substream(seed: int, offset: int) -> random.Random:
    # Tuple hashing over ints is deterministic (no string randomisation),
    # giving decorrelated, reproducible substreams.
    return random.Random(hash((seed, offset)))


def generate(spec: WorkloadSpec, seed: int = 0) -> Workload:
    """Generate one workload from ``spec`` using ``seed``.

    Examples
    --------
    >>> w = generate(WorkloadSpec(n_transactions=10, utilization=0.5), seed=1)
    >>> w.n
    10
    >>> all(t.deadline >= t.arrival + t.length for t in w.transactions)
    True
    """
    n = spec.n_transactions
    sampler = ZipfSampler(spec.zipf_alpha, spec.length_min, spec.length_max)
    lengths = sampler.sample_many(_substream(seed, _STREAM_LENGTHS), n)

    if spec.use_empirical_mean:
        mean_length = sum(lengths) / n
    else:
        mean_length = sampler.mean()

    rate = arrival_rate(spec.utilization, mean_length)
    arrivals = poisson_arrivals(_substream(seed, _STREAM_ARRIVALS), n, rate)

    # Dependency lists of the transactions that have any.
    depends_on: dict[int, list[int]] = {}
    if spec.with_workflows:
        plan = plan_chains(
            _substream(seed, _STREAM_CHAINS),
            n,
            spec.max_workflow_length,
            spec.max_workflows_per_txn,
        )
        depends_on = plan.depends_on
        covered = bytearray(n)
        for chain in plan.chains:
            for i in chain:
                covered[i] = 1
        uncovered = [i for i in range(n) if not covered[i]]
        if uncovered:
            raise WorkloadError(
                f"chain planning left transactions without a chain: {uncovered}"
            )

    deadlines = assign_deadlines(
        _substream(seed, _STREAM_DEADLINES), arrivals, lengths, spec.k_max
    )
    weights = sample_weights(
        _substream(seed, _STREAM_WEIGHTS),
        n,
        spec.weight_min,
        spec.weight_max,
        weighted=spec.weighted,
    )

    estimates = sample_estimates(
        _substream(seed, _STREAM_ESTIMATES),
        [float(l) for l in lengths],
        spec.length_estimate_error,
    )

    transactions = [
        Transaction(
            txn_id=i,
            arrival=arrivals[i],
            length=float(lengths[i]),
            deadline=deadlines[i],
            weight=weights[i],
            depends_on=sorted(depends_on.get(i, ())),
            length_estimate=estimates[i],
        )
        for i in range(n)
    ]

    workflow_set = WorkflowSet(transactions) if spec.with_workflows else None
    if workflow_set is not None:
        workflow_set.validate_acyclic()

    return Workload(
        spec=spec,
        seed=seed,
        transactions=transactions,
        workflow_set=workflow_set,
        mean_length=mean_length,
        rate=rate,
    )
