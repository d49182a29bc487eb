"""Reference full-rescan ASETS* — the oracle for the incremental heaps.

:class:`ScanASETSStar` transcribes Figure 7 as directly as possible: at
every scheduling point it rescans every active workflow, asks each for
its representative and head (``representative()`` / ``head()``, never
the slot aggregates the production heaps read), keeps the top of the
EDF-List and of the HDF-List, and runs the weighted negative-impact
comparison with ties to the HDF side.  It shares only the membership
predicate and sort keys of :mod:`repro.policies.ordering` with
:class:`~repro.policies.asets_star.ASETSStar`; everything the heaps
add — dirty marks, serials, alarms, keep-in-place — is absent here, so
byte-identical event streams between the two check that machinery.

:func:`edf_list` / :func:`hdf_list` materialise the two lists for any
bound ASETS*-family policy from its workflow set.
"""

from __future__ import annotations

from repro.core.transaction import Transaction, TransactionState
from repro.core.workflow import RepresentativeView, Workflow
from repro.errors import SchedulingError
from repro.policies.base import Scheduler
from repro.policies.ordering import edf_key, feasible_at, hdf_key, slack

__all__ = ["ScanASETSStar", "SCAN", "partition", "edf_list", "hdf_list"]

_READY = TransactionState.READY

#: Everything a decision needs about one list top, looked up exactly once.
_Entry = tuple[Workflow, RepresentativeView, Transaction]

#: A list entry: (sort key, workflow).
_Keyed = tuple[tuple[float, int], Workflow]


class ScanASETSStar(Scheduler):
    """ASETS* selecting by a full rescan of the active workflows."""

    name = "asets-star"
    requires_workflows = True
    _stages = {"_scan": "scan", "_decide": "decide"}

    def __init__(self) -> None:
        super().__init__()
        self._active: dict[int, Workflow] = {}

    def bind(self, transactions, workflow_set) -> None:  # type: ignore[no-untyped-def]
        super().bind(transactions, workflow_set)
        self._active.clear()

    def on_arrival(self, txn: Transaction, now: float) -> None:
        if self._workflow_set is None:
            raise SchedulingError("ASETS* requires a workflow set")
        for wf in self._workflow_set.member_workflows(txn.txn_id):
            self._active[wf.wf_id] = wf

    def on_ready(self, txn: Transaction, now: float) -> None:
        """Nothing to do: the next select rescans."""

    def select(self, now: float) -> Transaction | None:
        top_edf, top_hdf = self._scan(now)
        if top_hdf is None:
            return None if top_edf is None else top_edf[2]
        if top_edf is None:
            return top_hdf[2]
        return self._decide(top_edf, top_hdf, now)

    def _scan(self, now: float) -> tuple[_Entry | None, _Entry | None]:
        """One pass over the active set: top of the EDF- and HDF-lists.

        Also prunes workflows whose representative vanished (all members
        reached a terminal state) — the paper's lists only ever hold
        pending workflows.
        """
        best_edf: _Entry | None = None
        best_edf_key: tuple[float, int] | None = None
        best_hdf: _Entry | None = None
        best_hdf_key: tuple[float, int] | None = None
        completed: list[int] = []

        for wf in self._active.values():
            rep = wf.representative()
            if rep is None:
                completed.append(wf.wf_id)
                continue
            head = wf.head()
            if head is None or head.state is not _READY:
                continue  # workflow cannot run right now
            if feasible_at(rep.deadline, rep.scheduling_remaining, now):
                key = edf_key(rep.deadline, wf.wf_id)
                if best_edf_key is None or key < best_edf_key:
                    best_edf, best_edf_key = (wf, rep, head), key
            else:
                key = hdf_key(rep.weight, rep.scheduling_remaining, wf.wf_id)
                if best_hdf_key is None or key < best_hdf_key:
                    best_hdf, best_hdf_key = (wf, rep, head), key

        for wf_id in completed:
            del self._active[wf_id]
        return best_edf, best_hdf

    @staticmethod
    def _decide(top_edf: _Entry, top_hdf: _Entry, now: float) -> Transaction:
        """Figure 7 lines 15-21: weighted negative-impact comparison."""
        _, rep_edf, head_edf = top_edf
        _, rep_hdf, head_hdf = top_hdf
        ni_edf = head_edf.scheduling_remaining * rep_hdf.weight
        ni_hdf = (
            head_hdf.scheduling_remaining
            - slack(rep_edf.deadline, rep_edf.scheduling_remaining, now)
        ) * rep_edf.weight
        if ni_edf < ni_hdf:
            return head_edf
        return head_hdf


class _ScanSpec:
    """``PolicySpec`` stand-in: the runners only call ``make()``."""

    name = label = display = "asets-star-scan"

    @staticmethod
    def make() -> ScanASETSStar:
        return ScanASETSStar()


#: Pass where a ``PolicySpec`` is expected to run the oracle.
SCAN = _ScanSpec()


def partition(policy: Scheduler, now: float) -> tuple[list[_Keyed], list[_Keyed]]:
    """(feasible, infeasible) runnable workflows with their sort keys.

    One ``representative()``/``head()`` lookup per workflow per call —
    the keys are computed once and carried next to the workflow, so a
    sort can never observe a different representative than the
    membership test did.
    """
    feasible: list[_Keyed] = []
    infeasible: list[_Keyed] = []
    workflow_set = policy.workflow_set
    for wf in () if workflow_set is None else workflow_set:
        rep = wf.representative()
        if rep is None:
            continue
        head = wf.head()
        if head is None or head.state is not _READY:
            continue
        if feasible_at(rep.deadline, rep.scheduling_remaining, now):
            feasible.append((edf_key(rep.deadline, wf.wf_id), wf))
        else:
            key = hdf_key(rep.weight, rep.scheduling_remaining, wf.wf_id)
            infeasible.append((key, wf))
    feasible.sort(key=lambda entry: entry[0])
    infeasible.sort(key=lambda entry: entry[0])
    return feasible, infeasible


def edf_list(policy: Scheduler, now: float) -> list[Workflow]:
    """Runnable workflows whose representative is feasible, EDF order."""
    return [wf for _key, wf in partition(policy, now)[0]]


def hdf_list(policy: Scheduler, now: float) -> list[Workflow]:
    """Runnable workflows whose representative is infeasible, HDF order."""
    return [wf for _key, wf in partition(policy, now)[1]]
