"""Conforming builders: one returns its literal, one a named record."""

__all__ = ["ping_record", "pong_record"]


def ping_record(now):
    return {"kind": "ping", "t": now}


def pong_record(now, val):
    record = {"kind": "pong", "t": now, "val": val}
    return record
