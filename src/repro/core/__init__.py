"""Core model of the ASETS* reproduction.

This subpackage defines the vocabulary of the paper's Section II:

* :class:`~repro.core.transaction.Transaction` — a web transaction with an
  arrival time, a soft deadline, a (remaining) processing time, a weight and
  a dependency list (Definition 1).
* :class:`~repro.core.workflow.Workflow` — a set of interdependent
  transactions rooted at a transaction that no other transaction depends on,
  together with its *head* and *representative* transactions
  (Definitions 8 and 9).
* :class:`~repro.core.workflow_set.WorkflowSet` — the network of workflows
  over a transaction pool, with the bookkeeping the scheduler needs.

Slack and feasibility (Definitions 2, 6 and 7) and the policies' priority
keys (Section II-C) live with the policies, in
:mod:`repro.policies.ordering` and each baseline's ``key``; tardiness
(Definitions 3-5) lives with the results, on
:class:`~repro.sim.results.TransactionRecord`.
"""

from repro.core.transaction import Transaction, TransactionState
from repro.core.workflow import Workflow, RepresentativeView
from repro.core.workflow_set import WorkflowSet

__all__ = [
    "Transaction",
    "TransactionState",
    "Workflow",
    "RepresentativeView",
    "WorkflowSet",
]
