"""Non-preemptive execution of any policy.

The paper's model (and classical RTDBMS practice) preempts at every
arrival; real query engines often cannot suspend a statement mid-flight.
:class:`NonPreemptive` wraps any scheduler and pins each dispatched
transaction until it completes, so the inner policy only decides at
completion boundaries.  Comparing a policy with its non-preemptive self
quantifies exactly how much of its performance comes from preemption —
see ``benchmarks/bench_preemption_value.py``.

Implementation: the simulator suspends the running transaction at every
scheduling point and asks again; this wrapper simply keeps answering
with the pinned transaction until it completes.  With multiple servers
each pinned transaction keeps its server; free servers are filled with
fresh picks from the inner policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.transaction import Transaction, TransactionState
from repro.policies.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.workflow_set import WorkflowSet
    from repro.obs.profile import Probe

__all__ = ["NonPreemptive"]


class NonPreemptive(Scheduler):
    """Run ``inner``'s choices to completion (no preemption).

    Examples
    --------
    >>> from repro.policies import SRPT
    >>> NonPreemptive(SRPT()).name
    'np-srpt'
    """

    def __init__(self, inner: Scheduler) -> None:
        super().__init__()
        self.inner = inner
        self.name = f"np-{inner.name}"
        self.requires_workflows = inner.requires_workflows
        self.activation_period = inner.activation_period
        self._pinned: dict[int, Transaction] = {}
        #: Pins already handed out during the current scheduling point
        #: (the engine calls select once per free server).
        self._offered: set[int] = set()
        self._last_now: float | None = None

    # ------------------------------------------------------------------
    # Delegation.
    # ------------------------------------------------------------------
    def bind(
        self,
        transactions: Sequence[Transaction],
        workflow_set: "WorkflowSet | None",
    ) -> None:
        super().bind(transactions, workflow_set)
        self.inner.bind(transactions, workflow_set)
        self._pinned.clear()
        self._offered.clear()
        self._last_now = None

    def attach_probe(self, probe: "Probe | None") -> None:
        """Propagate the probe so the inner policy's spans attribute too."""
        super().attach_probe(probe)
        self.inner.attach_probe(probe)

    def on_arrival(self, txn: Transaction, now: float) -> None:
        self.inner.on_arrival(txn, now)

    def on_ready(self, txn: Transaction, now: float) -> None:
        self.inner.on_ready(txn, now)

    def on_requeue(self, txn: Transaction, now: float) -> None:
        self.inner.on_requeue(txn, now)

    def on_completion(self, txn: Transaction, now: float) -> None:
        self._pinned.pop(txn.txn_id, None)
        self.inner.on_completion(txn, now)

    def on_fault(self, txn: Transaction, now: float) -> None:
        # An aborted or shed transaction gives its server up: a retry
        # re-enters as fresh ready work, not as the running pin.
        self._pinned.pop(txn.txn_id, None)
        self.inner.on_fault(txn, now)

    def on_activation(self, now: float) -> None:
        self.inner.on_activation(now)

    # ------------------------------------------------------------------
    # Selection: re-offer pins first, then fresh picks.
    # ------------------------------------------------------------------
    def select(self, now: float) -> Transaction | None:
        # repro-lint: disable=RL003 -- scheduling-point identity, not a
        # tolerance check: the engine passes the same float `now` to every
        # select() call of one scheduling point, so exact inequality is
        # precisely "a new point started".
        if now != self._last_now:
            self._last_now = now
            self._offered = set()
        for txn_id, txn in self._pinned.items():
            if txn_id in self._offered:
                continue
            if txn.state is TransactionState.READY:
                self._offered.add(txn_id)
                return txn
        candidate = self.inner.select(now)
        if candidate is not None:
            self._pinned[candidate.txn_id] = candidate
            self._offered.add(candidate.txn_id)
        return candidate
