"""Wall-clock samples judged as the scheduling clock."""

from time import perf_counter

from repro.policies.ordering import feasible_at, slack

__all__ = ["still_feasible", "margin"]


def still_feasible(txn):
    wall = perf_counter()
    return feasible_at(txn.deadline, txn.scheduling_remaining, now=wall)


def margin(txn):
    return slack(txn.deadline, txn.scheduling_remaining, perf_counter())
