"""Name-based policy construction.

Experiment configurations and the CLI refer to policies by short names;
:func:`make_policy` turns a name plus keyword arguments into a fresh
policy instance.  Fresh instances matter: policies carry per-run state, so
each simulation run must receive its own.

========================  ====================================================
Name                      Policy
========================  ====================================================
``fcfs``                  :class:`~repro.policies.fcfs.FCFS`
``edf``                   :class:`~repro.policies.edf.EDF`
``srpt``                  :class:`~repro.policies.srpt.SRPT`
``ls``                    :class:`~repro.policies.least_slack.LeastSlack`
``hdf``                   :class:`~repro.policies.hdf.HDF`
``hvf``                   :class:`~repro.policies.hvf.HVF`
``mix``                   :class:`~repro.policies.mix.MIX` (``tradeoff=``)
``asets``                 :class:`~repro.policies.asets.ASETS` (``weighted=``):
                          ASETS* over per-transaction singletons
``ready``                 :class:`~repro.policies.ready.Ready` (``weighted=``):
                          ``asets`` on dependent pools
``asets-star``            :class:`~repro.policies.asets_star.ASETSStar`
``balance-aware``         :class:`~repro.policies.balance_aware.BalanceAware`
                          wrapping ASETS* (``time_rate=`` / ``count_rate=``)
========================  ====================================================
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SchedulingError
from repro.policies.asets import ASETS
from repro.policies.asets_star import ASETSStar
from repro.policies.balance_aware import BalanceAware
from repro.policies.base import Scheduler
from repro.policies.edf import EDF
from repro.policies.fcfs import FCFS
from repro.policies.hdf import HDF
from repro.policies.hvf import HVF
from repro.policies.least_slack import LeastSlack
from repro.policies.mix import MIX
from repro.policies.nonpreemptive import NonPreemptive
from repro.policies.ready import Ready
from repro.policies.srpt import SRPT

__all__ = ["make_policy", "available_policies"]


def _balance_aware(**kwargs: Any) -> BalanceAware:
    """Balance-aware ASETS*, the configuration evaluated in Section IV-F."""
    return BalanceAware(ASETSStar(), **kwargs)


def _non_preemptive(inner: str = "edf", **kwargs: Any) -> NonPreemptive:
    """Any registry policy, pinned to completion (``inner`` by name)."""
    return NonPreemptive(make_policy(inner, **kwargs))


_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "fcfs": FCFS,
    "edf": EDF,
    "srpt": SRPT,
    "ls": LeastSlack,
    "hdf": HDF,
    "hvf": HVF,
    "mix": MIX,
    "asets": ASETS,
    "ready": Ready,
    "asets-star": ASETSStar,
    "balance-aware": _balance_aware,
    "non-preemptive": _non_preemptive,
}


def available_policies() -> list[str]:
    """Sorted list of policy names accepted by :func:`make_policy`."""
    return sorted(_FACTORIES)


def make_policy(name: str, **kwargs: Any) -> Scheduler:
    """Construct a fresh policy instance by registry name.

    Raises
    ------
    SchedulingError
        If the name is unknown.

    Examples
    --------
    >>> make_policy("edf").name
    'edf'
    >>> make_policy("balance-aware", time_rate=0.01).activation_period
    100.0
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise SchedulingError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None
    return factory(**kwargs)
