"""Admission control: shed lowest-value ready work under overload.

When a :class:`~repro.faults.spec.FaultSpec` sets ``backlog_limit``, the
engine consults a :class:`ShedPolicy` at every scheduling point: if the
instantaneous ready backlog exceeds the limit, the guard picks victims
among the *ready* (never running) transactions until the backlog is back
at the limit.  Shedding is a terminal outcome (``shed``) recorded in
:class:`~repro.sim.results.SimulationResult` — graceful degradation, not
silent loss.

Two notions of "lowest value" ship with the paper reproduction:

* :class:`ShedByWeight` — smallest weight first (drop the least important
  fragment; §II-A weights are the SLA currency);
* :class:`ShedByFeasibility` — smallest believed slack first (drop the
  work least likely to meet its deadline anyway, a firm-deadline
  heuristic in the AED tradition).

Both break ties by transaction id, so victim selection is deterministic.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.transaction import Transaction
from repro.errors import FaultError
from repro.policies.ordering import slack

__all__ = [
    "ShedByFeasibility",
    "ShedByWeight",
    "ShedPolicy",
    "available_shed_policies",
    "make_shed_policy",
]


class ShedPolicy:
    """Ranks ready transactions by how expendable they are under overload."""

    #: Registry name; shown in ``shed`` events as the reason.
    name = "base"

    def rank(self, txn: Transaction, now: float) -> tuple[float, int]:
        """Sort key: ascending, most expendable first (ties by id)."""
        raise NotImplementedError

    def victims(
        self, ready: Sequence[Transaction], now: float, excess: int
    ) -> list[Transaction]:
        """The ``excess`` most-expendable transactions of ``ready``."""
        if excess <= 0:
            return []
        ranked = sorted(ready, key=lambda txn: self.rank(txn, now))
        return ranked[:excess]


class ShedByWeight(ShedPolicy):
    """Shed the lowest-weight (least important) ready work first."""

    name = "weight"

    def rank(self, txn: Transaction, now: float) -> tuple[float, int]:
        return (txn.weight, txn.txn_id)


class ShedByFeasibility(ShedPolicy):
    """Shed the most-infeasible ready work first (smallest believed slack).

    Uses the scheduler-visible slack (:func:`repro.policies.ordering.slack`,
    on the believed remaining time), matching the estimate-blind basis
    every policy ranks by.
    """

    name = "feasibility"

    def rank(self, txn: Transaction, now: float) -> tuple[float, int]:
        return (slack(txn.deadline, txn.scheduling_remaining, now), txn.txn_id)


_POLICIES: dict[str, type[ShedPolicy]] = {
    ShedByWeight.name: ShedByWeight,
    ShedByFeasibility.name: ShedByFeasibility,
}


def available_shed_policies() -> list[str]:
    """Sorted names accepted by :func:`make_shed_policy`."""
    return sorted(_POLICIES)


def make_shed_policy(name: str) -> ShedPolicy:
    """Construct a shed policy by registry name.

    Raises
    ------
    FaultError
        If the name is unknown.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise FaultError(
            f"unknown shed policy {name!r}; available: "
            + ", ".join(available_shed_policies())
        ) from None
    return cls()
