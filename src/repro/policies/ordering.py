"""The single table of scheduling rank functions.

The paper's two-list scheme hinges on one predicate and two orderings:

* **feasibility** (Definitions 6/7) — an item belongs to the EDF-List iff
  it can still meet its deadline when started now,
  :math:`t + r \\le d`, judged on the scheduler's believed remaining time;
  its margin is the **slack** :math:`d - (t + r)` (Definition 2) and its
  flip time the **latest start** :math:`d - r`;
* the **EDF order** — feasible items sorted by deadline;
* the **HDF order** — infeasible items sorted by density :math:`w / r`
  (descending; equal weights reduce it to SRPT order);

and one decision between the two list tops, the weighted *negative
impact* comparison of Equation 1 / Figure 7
(:func:`negative_impact_edf`, :func:`negative_impact_srpt`).

Before this module existed each call site re-derived these expressions
locally (the ASETS* rescan tested ``now + r <= d`` while the
introspection helpers asked ``now + r > d``, and every density
key divided by the believed remaining time unguarded).  Re-derivation is
how orderings drift: a float-ulp difference in the membership test, or a
division by a zero believed remaining, changes a decision in one place
but not the other.  The reference rescans the test suite checks ASETS*
against call the functions below; the incremental ASETS* heaps inline
them on their hot path, each site marked with the function it
transcribes, and the byte-identity suite against the rescans pins the
two to the same decisions.  Slack, feasibility and latest start are
defined here and nowhere else: the shed-by-feasibility admission guard
(:mod:`repro.faults.admission`) and balance-aware's ``tardy_only`` filter
call them as well.  The balance-aware
aging order (:func:`aging_key`) lives here too; the static-key
baselines (EDF, SRPT, HDF, ...) define theirs as the ``key`` of their
:class:`~repro.policies.base.HeapScheduler`.

Density guard
-------------
``scheduling_remaining`` can reach exactly ``0.0`` while a transaction is
still schedulable: under ``length_estimate_error`` the engine zeroes the
belief the instant the ground-truth work is exhausted, and a completion
event re-dispatched across a preemption can land a float ulp later than
the work ran out.  A representative aggregating such a member would make
``w / r`` raise ``ZeroDivisionError`` mid-sort.  The paper-consistent
reading of a zero remaining time is *infinite density* — no other item
can have a better weight-per-remaining-time ratio — so
:func:`hdf_key` maps it to ``-inf``, the front of the HDF list, with the
caller's id tie-break deciding among several.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transaction import Transaction

__all__ = [
    "feasible_at",
    "slack",
    "edf_key",
    "hdf_rank",
    "hdf_key",
    "latest_start",
    "negative_impact_edf",
    "negative_impact_srpt",
    "aging_key",
]

_NEG_INF = float("-inf")


def feasible_at(deadline: float, scheduling_remaining: float, now: float) -> bool:
    """The EDF-List membership test: ``now + r <= d`` (Definition 6).

    ASETS-family components call this function (or, on the ASETS* heap
    hot path, transcribe it verbatim) rather than re-deriving the
    comparison, so that all of them agree to the float ulp.
    """
    return now + scheduling_remaining <= deadline


def slack(deadline: float, scheduling_remaining: float, now: float) -> float:
    """Believed slack ``d - (now + r)`` (Definition 2).

    Negative slack means the item can no longer meet its deadline even if
    it starts now; zero slack is still feasible (:func:`feasible_at`).
    """
    return deadline - (now + scheduling_remaining)


def edf_key(deadline: float, tie_id: int) -> tuple[float, int]:
    """EDF-List sort key: earliest deadline first, smallest id on ties."""
    return (deadline, tie_id)


def hdf_rank(weight: float, scheduling_remaining: float) -> float:
    """Scalar HDF rank: negated density ``-(w / r)``, smaller = better.

    A zero believed remaining time means infinite density — the item
    ranks ``-inf``, the front of the HDF list; the caller's id tie-break
    decides among several exhausted-belief items deterministically.
    """
    if scheduling_remaining <= 0.0:
        return _NEG_INF
    return -(weight / scheduling_remaining)


def hdf_key(
    weight: float, scheduling_remaining: float, tie_id: int
) -> tuple[float, int]:
    """HDF-List sort key: :func:`hdf_rank` with the id tie-break attached."""
    return (hdf_rank(weight, scheduling_remaining), tie_id)


def latest_start(deadline: float, scheduling_remaining: float) -> float:
    """The feasibility flip threshold ``d - r`` (the migration alarm).

    While an item waits its believed remaining time is frozen, so it
    stays feasible exactly until the clock passes this value.  Float
    caveat: ``d - r < now`` and ``not (now + r <= d)`` can disagree by an
    ulp, so the threshold is only ever used as a *wake-up alarm* —
    membership itself is always re-judged by :func:`feasible_at`.
    """
    return deadline - scheduling_remaining


def negative_impact_edf(r_edf: float, w_srpt: float = 1.0) -> float:
    """Negative impact of running the EDF top first: it delays the HDF
    top's completion by the EDF top's remaining time, scaled by the HDF
    side's weight (Equation 1 / Figure 7, line 15)."""
    return r_edf * w_srpt


def negative_impact_srpt(r_srpt: float, s_edf: float, w_edf: float = 1.0) -> float:
    """Negative impact of running the HDF top first: it pushes the EDF top
    past its deadline by whatever exceeds the EDF top's slack, scaled by
    the EDF side's weight (Equation 1 / Figure 7, line 16)."""
    return (r_srpt - s_edf) * w_edf


def aging_key(txn: "Transaction") -> float:
    """Key for the balance-aware :math:`T_{old}` pick (Section III-D).

    :math:`T_{old}` is the ready transaction with the *highest*
    weight-to-deadline ratio :math:`w_i / d_i` — the natural aging order in
    which the transaction with the earliest deadline is the oldest.
    Negated so the smallest key wins; a non-positive deadline ranks first.
    """
    if txn.deadline <= 0:
        return _NEG_INF
    return -(txn.weight / txn.deadline)
