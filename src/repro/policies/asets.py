"""ASETS: the transaction-level adaptive EDF/SRPT hybrid (Section III-A).

The scheduler maintains two priority lists:

* the **EDF-List** — transactions that can still meet their deadline if
  started now (:math:`t + r_i \\le d_i`, Definition 6), ordered by
  deadline, and
* the **SRPT-List** — transactions that already missed
  (:math:`t + r_i > d_i`, Definition 7), ordered by remaining processing
  time (or, in the weighted variant, by density :math:`w_i/r_i`, making
  the list an HDF-List — Section III-C).

Every transaction starts on the EDF-List and migrates one way to the
SRPT-List when the clock passes its *latest start time*
:math:`d_i - r_i`; while a transaction waits its remaining time is frozen,
so that threshold is a static key and migrations are handled with a third
internal heap rather than by rescanning.

At each scheduling point the policy compares the tops of the two lists by
their *negative impact* (Figure 3):

* running :math:`T_{1,EDF}` first delays :math:`T_{1,SRPT}` by
  :math:`r_{1,EDF}` — weighted: :math:`r_{1,EDF} \\cdot w_{1,SRPT}`;
* running :math:`T_{1,SRPT}` first delays :math:`T_{1,EDF}` by
  :math:`r_{1,SRPT} - s_{1,EDF}` — weighted:
  :math:`(r_{1,SRPT} - s_{1,EDF}) \\cdot w_{1,EDF}`.

:math:`T_{1,EDF}` runs iff its negative impact is strictly smaller
(Equation 1 / Figure 7 lines 15-21); ties go to the SRPT/HDF side, per the
pseudo-code.  In the extremes the policy degenerates exactly: all
transactions feasible → pure EDF; all transactions tardy → pure SRPT/HDF.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.transaction import Transaction, TransactionState
from repro.policies.base import Scheduler
from repro.policies.ordering import hdf_rank

__all__ = ["ASETS", "negative_impact_edf", "negative_impact_srpt"]


def negative_impact_edf(
    r_edf: float, w_srpt: float = 1.0
) -> float:
    """Negative impact of running the EDF top first: it delays the SRPT
    top's completion by the EDF top's remaining time (scaled by the SRPT
    side's weight in the general case — Figure 7, line 15)."""
    return r_edf * w_srpt

def negative_impact_srpt(
    r_srpt: float, s_edf: float, w_edf: float = 1.0
) -> float:
    """Negative impact of running the SRPT top first: it pushes the EDF
    top past its deadline by whatever exceeds the EDF top's slack (scaled
    by the EDF side's weight — Figure 7, line 16)."""
    return (r_srpt - s_edf) * w_edf


class ASETS(Scheduler):
    """Adaptive SRPT/EDF Transaction Scheduling at the transaction level.

    Parameters
    ----------
    weighted:
        When False (the default, matching Section III-A) the overload list
        is ordered by remaining time and the decision rule is Equation 1.
        When True the overload list is ordered by density (HDF) and both
        negative impacts are scaled by the opposing transaction's weight,
        which is the transaction-level specialisation of the general
        ASETS* rule (Figure 7).
    """

    name = "asets"
    _stages = {
        "_migrate_expired": "migrate",
        "_top_edf": "top-edf",
        "_top_srpt": "top-srpt",
        "_decide": "decide",
    }

    def __init__(self, weighted: bool = False) -> None:
        super().__init__()
        self.weighted = weighted
        self._seq = itertools.count()
        # (deadline, arrival, id, seq, txn): feasible txns, EDF order.
        self._edf: list[tuple[float, float, int, int, Transaction]] = []
        # (latest_start, remaining_snapshot, seq, deadline, txn): migration
        # thresholds.  The deadline snapshot rides along *after* the unique
        # seq — it can never influence heap order — and marks entries stale
        # when a fault retry re-submits the transaction with a new deadline.
        self._migrate: list[tuple[float, float, int, float, Transaction]] = []
        # (order_key, arrival, id, seq, deadline, txn): tardy txns,
        # SRPT/HDF order; the deadline snapshot serves the same staleness
        # role as on the migration heap.
        self._srpt: list[tuple[float, float, int, int, float, Transaction]] = []

    # ------------------------------------------------------------------
    # Insertion.
    # ------------------------------------------------------------------
    def on_ready(self, txn: Transaction, now: float) -> None:
        if txn.is_past_deadline(now):
            self._push_srpt(txn)
        else:
            seq = next(self._seq)
            heapq.heappush(
                self._edf, (txn.deadline, txn.arrival, txn.txn_id, seq, txn)
            )
            heapq.heappush(
                self._migrate,
                (
                    txn.latest_start_time(),
                    txn.scheduling_remaining,
                    seq,
                    txn.deadline,
                    txn,
                ),
            )

    def _push_srpt(self, txn: Transaction) -> None:
        heapq.heappush(
            self._srpt,
            (
                self._srpt_key(txn),
                txn.arrival,
                txn.txn_id,
                next(self._seq),
                txn.deadline,
                txn,
            ),
        )

    def _srpt_key(self, txn: Transaction) -> float:
        if self.weighted:
            # Shared density rank: guards the believed-zero-remaining
            # case (infinite density -> -inf, front of the list).
            return hdf_rank(txn.weight, txn.scheduling_remaining)
        return txn.scheduling_remaining

    # ------------------------------------------------------------------
    # List maintenance.
    # ------------------------------------------------------------------
    def _migrate_expired(self, now: float) -> None:
        """Move transactions whose latest start time has passed to SRPT.

        A transaction sits on the EDF-List while :math:`t \\le d_i - r_i`;
        ``remaining`` is frozen while it waits, so the stored threshold is
        exact unless the transaction ran in between — in that case the
        snapshot mismatch identifies the entry as stale and a fresher
        entry (pushed at requeue time) carries the correct threshold.
        A deadline mismatch likewise marks staleness: a fault retry
        re-submits the transaction with an extended deadline (and, under
        checkpoint work loss, an *unchanged* remaining), so the deadline
        snapshot is the only discriminator for the pre-abort entry.
        """
        while self._migrate and self._migrate[0][0] < now:
            _, snapshot, _, deadline, txn = heapq.heappop(self._migrate)
            if txn.state is not TransactionState.READY:
                continue
            # repro-lint: disable=RL003 -- snapshot identity, not arithmetic
            if snapshot != txn.scheduling_remaining or deadline != txn.deadline:
                continue  # stale: the transaction ran and was re-inserted
            # The threshold passed, so the transaction belongs to the
            # SRPT-List now.  Push unconditionally: re-deriving the
            # membership from t + r > d here can disagree with the
            # threshold comparison by a float ulp, and an entry dropped on
            # that disagreement would orphan the transaction.
            self._push_srpt(txn)

    def _top_edf(self, now: float) -> Transaction | None:
        while self._edf:
            deadline, _, _, _, txn = self._edf[0]
            if txn.state is not TransactionState.READY:
                heapq.heappop(self._edf)
                continue
            # repro-lint: disable=RL003 -- snapshot identity, not arithmetic
            if deadline != txn.deadline:
                # Stale pre-retry entry: the fault layer re-submitted the
                # transaction with a new deadline and on_ready pushed a
                # fresh, correctly-keyed entry.
                heapq.heappop(self._edf)
                continue
            if txn.is_past_deadline(now):
                # Evicting from the EDF-List always re-inserts into the
                # SRPT-List (possibly duplicating a migration-heap move —
                # duplicates are harmless) so no transaction is ever lost.
                heapq.heappop(self._edf)
                self._push_srpt(txn)
                continue
            return txn
        return None

    def _top_srpt(self, now: float) -> Transaction | None:
        while self._srpt:
            key, _, _, _, deadline, txn = self._srpt[0]
            if txn.state is not TransactionState.READY:
                heapq.heappop(self._srpt)
                continue
            # repro-lint: disable=RL003 -- snapshot identity, not arithmetic
            if key != self._srpt_key(txn) or deadline != txn.deadline:
                # Superseded by a requeued entry, or left over from a
                # pre-retry attempt (the extended deadline may have moved
                # the transaction back to the EDF-List).
                heapq.heappop(self._srpt)
                continue
            # Membership is one-way *within an attempt*, so no deadline
            # feasibility re-check: an entry on this list stays here until
            # the transaction completes or is re-submitted by a retry.
            return txn
        return None

    # ------------------------------------------------------------------
    # The ASETS decision (Equation 1 / Figure 7).
    # ------------------------------------------------------------------
    def select(self, now: float) -> Transaction | None:
        self._migrate_expired(now)
        t_edf = self._top_edf(now)
        t_srpt = self._top_srpt(now)
        return self._decide(t_edf, t_srpt, now)

    def _decide(
        self,
        t_edf: Transaction | None,
        t_srpt: Transaction | None,
        now: float,
    ) -> Transaction | None:
        """Equation 1 / Figure 7 on the two list tops (ties to SRPT/HDF)."""
        if t_edf is None:
            return t_srpt
        if t_srpt is None:
            return t_edf
        if self.weighted:
            ni_edf = negative_impact_edf(t_edf.scheduling_remaining, t_srpt.weight)
            ni_srpt = negative_impact_srpt(
                t_srpt.scheduling_remaining, t_edf.slack(now), t_edf.weight
            )
        else:
            ni_edf = negative_impact_edf(t_edf.scheduling_remaining)
            ni_srpt = negative_impact_srpt(t_srpt.scheduling_remaining, t_edf.slack(now))
        if ni_edf < ni_srpt:
            return t_edf
        return t_srpt

    # ------------------------------------------------------------------
    # Introspection (used by tests and the balance-aware wrapper).
    # ------------------------------------------------------------------
    def edf_list(self, now: float) -> list[Transaction]:
        """Current EDF-List contents in deadline order (rebuilt; O(n log n))."""
        self._migrate_expired(now)
        seen: set[int] = set()
        out = []
        for deadline, _, _, _, txn in sorted(self._edf):
            if (
                txn.state is TransactionState.READY
                # repro-lint: disable=RL003 -- snapshot identity, not arithmetic
                and deadline == txn.deadline
                and not txn.is_past_deadline(now)
                and txn.txn_id not in seen
            ):
                seen.add(txn.txn_id)
                out.append(txn)
        return out

    def srpt_list(self, now: float) -> list[Transaction]:
        """Current SRPT/HDF-List contents in list order (rebuilt)."""
        self._migrate_expired(now)
        seen: set[int] = set()
        out = []
        for key, _, _, _, deadline, txn in sorted(self._srpt):
            if (
                txn.state is TransactionState.READY
                and key == self._srpt_key(txn)
                # repro-lint: disable=RL003 -- snapshot identity, not arithmetic
                and deadline == txn.deadline
                and txn.txn_id not in seen
            ):
                seen.add(txn.txn_id)
                out.append(txn)
        return out
