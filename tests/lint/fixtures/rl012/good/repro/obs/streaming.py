"""A second emitter, so the never-emitted check engages, and a
declared store on a builder's record."""

from repro.obs.records import pong_record

__all__ = ["ping_again", "noted_pong"]


def ping_again(now):
    return {"kind": "ping", "t": now}


def noted_pong(now):
    record = pong_record(now, 1.0, None)
    record["note"] = "late"
    return record
