"""The event-record builders: one canonical dict per event kind.

These define the record shape of every kind in the schema table of
:mod:`repro.obs.jsonl` (``EVENT_SCHEMAS``; RL012 checks each literal
here against it, so edit the two together).
:class:`~repro.obs.streaming.StreamingRecorder` builds every record
here, whether its sink is a file or a
:class:`~repro.obs.recorder.Recorder`'s list, so a streamed log is
byte-identical to a buffered one and :mod:`repro.obs.analyze` reads
either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transaction import Transaction
    from repro.sim.results import StreamSummary

__all__ = [
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


def run_end_record(now: float, summary: "StreamSummary") -> dict:
    record = {
        "kind": "run_end",
        "t": now,
        "completed": summary.completed,
        "tardy": summary.tardy,
        "makespan": now,
    }
    # Additive schema-1 keys, present only when nonzero so a fault-free
    # log stays byte-identical to the pre-fault format.
    if summary.aborted:
        record["aborted"] = summary.aborted
    if summary.shed:
        record["shed"] = summary.shed
    if summary.retries:
        record["retries"] = summary.retries
    return record
