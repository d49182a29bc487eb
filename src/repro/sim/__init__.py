"""Discrete-event RTDBMS simulator.

The paper evaluates ASETS* on a custom C++ real-time-DBMS simulator; this
subpackage is its Python equivalent.  The model is a single backend
database server executing one transaction at a time, preemptively at
*scheduling points* — transaction arrivals and completions (plus the
balance-aware policy's activation ticks).  At every scheduling point the
configured policy picks the next transaction; preempted work is never lost.

Public entry point::

    from repro.sim import Simulator
    result = Simulator(transactions, policy).run()
"""

from repro.sim.events import Event, EventKind
from repro.sim.event_queue import EventQueue
from repro.sim.engine import Simulator
from repro.sim.gantt import render_gantt
from repro.sim.profiler import LengthProfiler
from repro.sim.results import SimulationResult, TransactionRecord
from repro.sim.validation import validate_schedule

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "Simulator",
    "SimulationResult",
    "TransactionRecord",
    "LengthProfiler",
    "render_gantt",
    "validate_schedule",
]
