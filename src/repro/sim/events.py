"""Event types of the RTDBMS simulator.

Three kinds of events advance the simulation clock in every run:

* ``ARRIVAL`` — a transaction is submitted to the database,
* ``COMPLETION`` — the running transaction finishes, and
* ``ACTIVATION`` — a periodic tick requested by the balance-aware policy
  (Section III-D, time-based activation).

Fault injection (:mod:`repro.faults`) adds four more, never scheduled
without a fault plan:

* ``FAULT`` — a planned abort/stall trigger on a running transaction,
* ``CRASH`` / ``RECOVER`` — a server crash window opens / closes, and
* ``RETRY`` — an aborted transaction's re-submission delay elapsed.

Events carry a monotonically increasing sequence number so that
simultaneous events are processed in a deterministic order: completions
first (freeing dependents), then fault triggers and crash transitions,
then arrivals and retries, then activation ticks.  The relative order of
the original three kinds is unchanged, keeping fault-free runs
byte-identical to the pre-fault engine.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["EventKind", "Event"]


class EventKind(enum.IntEnum):
    """Event kinds, ordered by processing priority at equal timestamps."""

    COMPLETION = 0
    FAULT = 1
    CRASH = 2
    RECOVER = 3
    ARRIVAL = 4
    RETRY = 5
    ACTIVATION = 6


class Event(NamedTuple):
    """One scheduled simulator event.

    A plain tuple, so the heap orders events natively by
    ``(time, kind, seq)``: by time, then kind priority, then insertion.
    Sequence numbers are unique, so a comparison never reaches
    ``txn_id`` or ``token``.  ``txn_id`` is ``None`` for activation
    ticks and crash transitions.

    ``token`` ties a completion or fault-trigger event to the dispatch
    that scheduled it.  The engine issues a fresh token whenever it
    moves a transaction's completion time (a switch, a drifted
    continuation, a stall), so an event scheduled under an older one no
    longer applies.  A transaction the policy re-selects with unchanged
    event times keeps its token, and its pending events stay live.
    """

    time: float
    kind: EventKind
    seq: int
    txn_id: int | None = None
    token: int = 0
