"""Scheduling policies.

The paper's policies and the related-work baselines, all implementing the
:class:`~repro.policies.base.Scheduler` interface consumed by
:class:`~repro.sim.engine.Simulator`:

* :class:`~repro.policies.fcfs.FCFS` — First-Come-First-Served.
* :class:`~repro.policies.edf.EDF` — Earliest-Deadline-First.
* :class:`~repro.policies.srpt.SRPT` — Shortest-Remaining-Processing-Time.
* :class:`~repro.policies.least_slack.LeastSlack` — Least-Slack (LS) [1].
* :class:`~repro.policies.hdf.HDF` — Highest-Density-First [2].
* :class:`~repro.policies.hvf.HVF` — Highest-Value-First (related work).
* :class:`~repro.policies.mix.MIX` — static value/deadline blend
  (related work, Buttazzo et al.).
* :class:`~repro.policies.asets.ASETS` — the transaction-level hybrid of
  EDF and SRPT/HDF (Section III-A): ASETS* over one singleton workflow
  per transaction.
* :class:`~repro.policies.ready.Ready` — the naive Wait-queue extension of
  ASETS to dependent transactions (Section III-B); ASETS by another name.
* :class:`~repro.policies.asets_star.ASETSStar` — workflow-level, weighted
  ASETS* (Sections III-B and III-C).
* :class:`~repro.policies.balance_aware.BalanceAware` — the aging wrapper
  balancing average- vs worst-case performance (Section III-D).

Use :func:`~repro.policies.registry.make_policy` to construct policies by
name.
"""

from repro.policies.base import Scheduler, ScanScheduler, HeapScheduler
from repro.policies.fcfs import FCFS
from repro.policies.edf import EDF
from repro.policies.srpt import SRPT
from repro.policies.least_slack import LeastSlack
from repro.policies.hdf import HDF
from repro.policies.hvf import HVF
from repro.policies.mix import MIX
from repro.policies.asets import ASETS
from repro.policies.ready import Ready
from repro.policies.asets_star import ASETSStar
from repro.policies.balance_aware import BalanceAware
from repro.policies.nonpreemptive import NonPreemptive
from repro.policies.registry import make_policy, available_policies

__all__ = [
    "Scheduler",
    "ScanScheduler",
    "HeapScheduler",
    "FCFS",
    "EDF",
    "SRPT",
    "LeastSlack",
    "HDF",
    "HVF",
    "MIX",
    "ASETS",
    "Ready",
    "ASETSStar",
    "BalanceAware",
    "NonPreemptive",
    "make_policy",
    "available_policies",
]
