"""Stores on builders' records: two declared, two undeclared."""

from repro.obs import records
from repro.obs.records import pong_record

__all__ = ["noted_pong", "wide_ping"]


def noted_pong(now):
    record = pong_record(now, 1.0)
    record["note"] = "late"  # declared optional field of pong
    record["sampled"] = False  # universal field
    record["extra"] = 1  # undeclared on pong
    return record


def wide_ping(now):
    header = records.ping_record(now)
    header["width"] = 5.0  # undeclared on ping
    return header
