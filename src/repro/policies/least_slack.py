"""Least-Slack scheduling (Abbott & Garcia-Molina).

Priority :math:`P_i = 1/s_i` with slack :math:`s_i = d_i - (t + r_i)`
(Definition 2).  Although the slack itself shrinks as the clock advances,
the *ordering* between two waiting transactions is governed by the static
quantity :math:`d_i - r_i` (the current time is common to both), so a lazy
heap keyed on :math:`d_i - r_i` implements LS exactly — the key moves only
when a transaction runs, which triggers a requeue.
"""

from __future__ import annotations

from repro.core.transaction import Transaction
from repro.policies.base import HeapScheduler

__all__ = ["LeastSlack"]


class LeastSlack(HeapScheduler):
    """LS: the ready transaction with minimal slack."""

    name = "ls"

    def key(self, txn: Transaction) -> float:
        # ordering.latest_start, inline on the heap's hot path: ordering
        # by d - r is ordering by slack d - (t + r), because t is shared.
        return txn.deadline - txn.scheduling_remaining
