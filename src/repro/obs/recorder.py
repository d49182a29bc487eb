"""The standard full-fidelity instrument, and the event-record builders.

:class:`Recorder` is a :class:`~repro.obs.streaming.StreamingRecorder`
whose event sink is its own in-memory ``events`` list: one telemetry
core (:class:`~repro.obs.streaming.RunTelemetry`) answers every
aggregate, and the retained log — one dict per engine event, in the
schema-versioned JSONL format of :mod:`repro.obs.jsonl` — answers the
rest.  ``select_samples`` (per-point ``select()`` wall-times) and
``timeline`` (a :class:`~repro.obs.timeline.Timeline` of ready-queue
depth, busy servers and running tardiness) are views over that log.

After the run, :meth:`Recorder.report` condenses everything into a
:class:`~repro.obs.summary.RunReport` (the streaming report, with exact
``select()`` percentiles taken from the log) and :meth:`write_events`
exports the log::

    recorder = Recorder()
    result = Simulator(txns, policy, instrument=recorder).run()
    print(recorder.report().render())
    recorder.write_events("run.jsonl")

A recorder observes exactly one run; attach a fresh one per run.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import TYPE_CHECKING, Mapping

from repro.errors import ObservabilityError
from repro.obs import jsonl
from repro.obs.streaming import StreamingRecorder
from repro.obs.summary import RunReport
from repro.obs.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transaction import Transaction

__all__ = [
    "Recorder",
    "abort_record",
    "arrival_record",
    "completion_record",
    "crash_record",
    "dispatch_record",
    "overhead_record",
    "preempt_record",
    "recover_record",
    "retry_record",
    "run_end_record",
    "run_start_record",
    "sched_record",
    "shed_record",
    "stall_record",
]


# ----------------------------------------------------------------------
# Event-record builders.
#
# These define the one canonical dict shape per event kind (the schema
# table in :mod:`repro.obs.jsonl`).  :class:`StreamingRecorder` builds
# every record here, whether its sink is a file or a :class:`Recorder`'s
# list, so a streamed log is byte-identical to a buffered one and
# :mod:`repro.obs.analyze` reads either.
# ----------------------------------------------------------------------
def run_start_record(
    schema: int, policy: str, n: int, servers: int
) -> dict:
    return {
        "schema": schema,
        "kind": "run_start",
        "t": 0.0,
        "policy": policy,
        "n": n,
        "servers": servers,
    }


def arrival_record(txn: "Transaction", now: float) -> dict:
    record = {"kind": "arrival", "t": now, "txn": txn.txn_id}
    if txn.depends_on:
        record["deps"] = list(txn.depends_on)
    return record


def dispatch_record(txn: "Transaction", now: float, overhead: float) -> dict:
    return {
        "kind": "dispatch",
        "t": now,
        "txn": txn.txn_id,
        "overhead": overhead,
    }


def preempt_record(txn: "Transaction", now: float) -> dict:
    return {"kind": "preempt", "t": now, "txn": txn.txn_id}


def overhead_record(txn: "Transaction", amount: float, now: float) -> dict:
    return {"kind": "overhead", "t": now, "txn": txn.txn_id, "amount": amount}


def completion_record(txn: "Transaction", now: float, tardiness: float) -> dict:
    return {
        "kind": "completion",
        "t": now,
        "txn": txn.txn_id,
        "tardiness": tardiness,
        "response_time": now - txn.arrival,
    }


def stall_record(txn: "Transaction", amount: float, now: float) -> dict:
    return {"kind": "fault.stall", "t": now, "txn": txn.txn_id, "amount": amount}


def abort_record(
    txn: "Transaction", now: float, lost: float, attempt: int, exhausted: bool
) -> dict:
    record = {
        "kind": "fault.abort",
        "t": now,
        "txn": txn.txn_id,
        "lost": lost,
        "attempt": attempt,
    }
    if exhausted:
        record["exhausted"] = True
    return record


def retry_record(
    txn: "Transaction", now: float, attempt: int, deadline: float
) -> dict:
    return {
        "kind": "retry",
        "t": now,
        "txn": txn.txn_id,
        "attempt": attempt,
        "deadline": deadline,
    }


def crash_record(now: float, down: int) -> dict:
    return {"kind": "fault.crash", "t": now, "down": down}


def recover_record(now: float, down: int) -> dict:
    return {"kind": "fault.recover", "t": now, "down": down}


def shed_record(txn: "Transaction", now: float, reason: str) -> dict:
    return {"kind": "shed", "t": now, "txn": txn.txn_id, "reason": reason}


def sched_record(
    now: float, ready: int, running: int, select_seconds: float
) -> dict:
    return {
        "kind": "sched",
        "t": now,
        "ready": ready,
        "running": running,
        "select_s": select_seconds,
    }


def run_end_record(
    now: float,
    completed: int,
    tardy: int,
    aborted: int = 0,
    shed: int = 0,
    retries: int = 0,
) -> dict:
    record = {
        "kind": "run_end",
        "t": now,
        "completed": completed,
        "tardy": tardy,
        "makespan": now,
    }
    # Additive schema-1 keys, present only when nonzero so a fault-free
    # log stays byte-identical to the pre-fault format.
    if aborted:
        record["aborted"] = aborted
    if shed:
        record["shed"] = shed
    if retries:
        record["retries"] = retries
    return record


class _EventLog(list):
    """A plain event list that is also an event sink."""

    __slots__ = ()
    write = list.append


class Recorder(StreamingRecorder):
    """Stream one run's events into an in-memory log, and report on it.

    Takes no options: the telemetry runs at the streaming defaults, and
    the log keeps every event (export it with :meth:`write_events`, or
    sampled through a :class:`~repro.obs.jsonl.SampledSink`).
    """

    def __init__(self) -> None:
        self.events: list[dict] = _EventLog()
        super().__init__(sink=self.events)

    @property
    def select_samples(self) -> list[float]:
        """Per-scheduling-point ``select()`` wall-times, in seconds."""
        return [e["select_s"] for e in self.events if e["kind"] == "sched"]

    @property
    def timeline(self) -> Timeline:
        """The log's scheduling points, with tardiness accrued so far."""
        timeline = Timeline()
        tardiness = 0.0
        for event in self.events:
            kind = event["kind"]
            if kind == "completion":
                tardiness += event["tardiness"]
            elif kind == "sched":
                timeline.append(
                    event["t"], event["ready"], event["running"], tardiness
                )
        return timeline

    def report(self) -> RunReport:
        """The streaming report, with exact ``select()`` percentiles."""
        p50, p90, p99, pmax = RunReport.select_percentiles(self.select_samples)
        return dataclasses.replace(
            super().report(),
            select_p50=p50,
            select_p90=p90,
            select_p99=p99,
            select_max=pmax,
        )

    def to_state(self) -> dict:
        """Checkpoint state: the streaming state plus the log so far."""
        return dict(super().to_state(), events=list(self.events))

    @classmethod
    def from_state(cls, state: Mapping, sink: object = None) -> "Recorder":
        """Rebuild a mid-run recorder; its sink is always its own log."""
        recorder = cls()
        recorder.events.extend(state["events"])
        recorder._restore(state)
        return recorder

    def write_events(self, path: str | pathlib.Path) -> pathlib.Path:
        """Export the event log as schema-versioned JSONL."""
        if not self.events:
            raise ObservabilityError("no events recorded; run a simulation first")
        return jsonl.write(self.events, path)

    def __repr__(self) -> str:
        return (
            f"Recorder(policy={self._policy!r}, events={len(self.events)}, "
            f"scheduling_points={self._sched_points})"
        )
