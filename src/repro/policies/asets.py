"""ASETS: the transaction-level adaptive EDF/SRPT hybrid (Section III-A).

ASETS keeps two lists — the **EDF-List** of transactions that can still
meet their deadline if started now (:math:`t + r_i \\le d_i`,
Definition 6), ordered by deadline, and the **SRPT-List** of those that
already missed (Definition 7), ordered by remaining time — and at every
scheduling point runs the EDF top iff its negative impact is strictly
smaller (Equation 1, ties to the SRPT side).  The weighted variant orders
the overload list by density (an HDF-List) and scales both negative
impacts by the opposing top's weight (Section III-C).

That is ASETS* (:mod:`repro.policies.asets_star`) on a workload in which
every transaction is its own workflow: a singleton's representative and
head are the transaction itself.  :class:`ASETS` is therefore ASETS*'s
one select path over a per-transaction **singleton view** that the
policy builds at bind time, with three details that make the two
coincide decision for decision:

* **Unit weights** — unless ``weighted=True`` every singleton carries
  weight 1, so the HDF rank is SRPT order and the negative impacts are
  unscaled, whatever weights the pool has.
* **Tie order** — singletons are numbered by ``(arrival, txn_id)``, the
  tie-break every transaction-level heap policy uses; ASETS* breaks
  ties by workflow number.
* **Own invalidation** — the engine keeps no workflow set for this
  policy, so each lifecycle hook marks the transaction's singleton stale
  itself.  That includes the ``on_ready`` of a dependent released by a
  completion (the *Ready* baseline of Figure 14 runs on dependent pools).
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Sequence

from repro.core.transaction import Transaction, TransactionState
from repro.core.workflow import AGGREGATE_SLOTS, Workflow
from repro.core.workflow_set import WorkflowSet
from repro.policies.asets_star import ASETSStar

__all__ = ["ASETS"]

_READY = TransactionState.READY
_RUNNING = TransactionState.RUNNING
_WAITING = TransactionState.WAITING
_INF = float("inf")

#: The aggregates a run changes on a singleton: all but the weight,
#: which is fixed at construction.
_CHANGING_SLOTS = tuple(slot for slot in AGGREGATE_SLOTS if slot != "rep_weight")
_CHANGING_GETTERS = tuple(map(attrgetter, _CHANGING_SLOTS))


class _Singleton(Workflow):
    """One transaction as its own workflow, read straight off the transaction.

    Skips the closure validation and the toposort of the general
    constructor, and refreshes in O(1) without touching the weight: the
    weight is fixed at construction (unit for unweighted ASETS).  A
    singleton starts dirty, so its aggregate slots are first read after
    the refresh that every reader runs before looking at them.

    It pickles as a reference into its view, which pickles the state of
    every singleton; the view is held by weak reference, so a view and
    its singletons form no reference cycle.
    """

    __slots__ = ("_view",)

    def __init__(
        self,
        view: weakref.ref[_SingletonSet],
        wf_id: int,
        txn: Transaction,
        weight: float,
    ) -> None:
        self._view = view
        self.wf_id = wf_id
        self.root_id = txn.txn_id
        self._order = (txn.txn_id,)
        self._member_seq = (txn,)
        self._dirty = True
        self._rep = None
        self.has_pending = False
        self.head_txn = None
        self.rep_deadline = _INF
        self.rep_scheduling_remaining = _INF
        self.rep_weight = weight

    def _refresh(self) -> None:
        txn = self._member_seq[0]
        state = txn.state
        runnable = state is _READY or state is _RUNNING
        self._dirty = False
        self._rep = None
        self.has_pending = runnable or state is _WAITING
        self.head_txn = txn if runnable else None
        self.rep_deadline = txn.deadline
        self.rep_scheduling_remaining = txn.scheduling_remaining

    def __reduce__(self) -> tuple:
        return _singleton_at, (self._view(), self.wf_id)


class _SingletonSet(WorkflowSet):
    """Every transaction its own workflow, numbered in ``(arrival, txn_id)`` order."""

    def __init__(self, transactions: Sequence[Transaction], weighted: bool) -> None:
        pool = sorted(transactions, key=lambda txn: (txn.arrival, txn.txn_id))
        ref = weakref.ref(self)
        self._weighted = weighted
        self._txns = {txn.txn_id: txn for txn in pool}
        self._workflows = [
            _Singleton(ref, wf_id, txn, txn.weight if weighted else 1.0)
            for wf_id, txn in enumerate(pool)
        ]
        self._by_member = {wf.root_id: [wf] for wf in self._workflows}

    def __reduce__(self) -> tuple:
        # Columns: the transactions in view order (pool references in a
        # checkpoint) and the aggregates the run changed.  Pickled one
        # by one, each singleton would carry its own opcodes, weight and
        # member containers.
        workflows = self._workflows
        return _singleton_set, (
            self._weighted,
            list(self._txns.values()),
            *(list(map(get, workflows)) for get in _CHANGING_GETTERS),
        )


def _singleton_set(
    weighted: bool, txns: list[Transaction], *columns: list[object]
) -> _SingletonSet:
    """The view :meth:`_SingletonSet.__reduce__` pickled."""
    view = _SingletonSet(txns, weighted)
    for slot, column in zip(_CHANGING_SLOTS, columns, strict=True):
        for wf, value in zip(view._workflows, column, strict=True):
            setattr(wf, slot, value)
    return view


def _singleton_at(view: _SingletonSet, wf_id: int) -> Workflow:
    """The singleton :meth:`_Singleton.__reduce__` pickled."""
    return view._workflows[wf_id]


class ASETS(ASETSStar):
    """Adaptive SRPT/EDF Transaction Scheduling at the transaction level.

    Parameters
    ----------
    weighted:
        When False (the default, matching Section III-A) every transaction
        weighs 1: the overload list is in SRPT order and the decision rule
        is Equation 1.  When True the transactions' own weights order the
        overload list by density (HDF) and scale both negative impacts
        (Figure 7).
    """

    name = "asets"
    requires_workflows = False

    def __init__(self, weighted: bool = False) -> None:
        super().__init__()
        self.weighted = weighted

    def bind(self, transactions, workflow_set) -> None:  # type: ignore[no-untyped-def]
        super().bind(transactions, _SingletonSet(transactions, self.weighted))

    def on_arrival(self, txn: Transaction, now: float) -> None:
        """Nothing to do: a singleton is runnable only from its ``on_ready``."""

    def _touch(self, txn: Transaction, dirty: dict[int, Workflow]) -> None:
        (wf,) = self._workflow_set._by_member[txn.txn_id]  # type: ignore[union-attr]
        wf._dirty = True
        dirty[wf.wf_id] = wf
