"""Differential testing: optimised policies vs naive reference oracles.

The production policies use lazy heaps with stale-entry dropping and,
for ASETS (ASETS* over singletons), a migration alarm heap.  Each has a
brutally simple reference implementation here — rescan everything at
every scheduling point — and hypothesis checks that the two produce
*identical schedules* on random workloads.  Any divergence is a bug in
the clever data structures.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.transaction import Transaction, TransactionState
from repro.policies import EDF, HDF, SRPT, LeastSlack, make_policy
from repro.policies.base import ScanScheduler
from repro.policies.ordering import (
    feasible_at,
    negative_impact_edf,
    negative_impact_srpt,
    slack,
)
from repro.sim.engine import Simulator
from tests.properties.test_engine_properties import transaction_pools


class NaiveEDF(ScanScheduler):
    name = "naive-edf"

    def sort_key(self, txn, now):
        return (txn.deadline, txn.arrival, txn.txn_id)


class NaiveSRPT(ScanScheduler):
    name = "naive-srpt"

    def sort_key(self, txn, now):
        return (txn.scheduling_remaining, txn.arrival, txn.txn_id)


class NaiveLS(ScanScheduler):
    name = "naive-ls"

    def sort_key(self, txn, now):
        # Ordering by slack d - (t + r) equals ordering by d - r because
        # t is common to all candidates — and the t-free form is the
        # float-stable one (evaluating d - (t + r) rounds differently per
        # transaction and can break mathematical ties inconsistently).
        return (
            txn.deadline - txn.scheduling_remaining,
            txn.arrival,
            txn.txn_id,
        )


class NaiveHDF(ScanScheduler):
    name = "naive-hdf"

    def sort_key(self, txn, now):
        return (
            -(txn.weight / txn.scheduling_remaining),
            txn.arrival,
            txn.txn_id,
        )


class NaiveASETS(ScanScheduler):
    """Transaction-level ASETS by full rescan at every point."""

    name = "naive-asets"

    def select(self, now):
        ready = [
            t for t in self._ready.values()
            if t.state is TransactionState.READY
        ]
        if not ready:
            return None
        edf_side, srpt_side = [], []
        for t in ready:
            if feasible_at(t.deadline, t.scheduling_remaining, now):
                edf_side.append(t)
            else:
                srpt_side.append(t)
        t_edf = min(
            edf_side, key=lambda t: (t.deadline, t.arrival, t.txn_id)
        ) if edf_side else None
        t_srpt = min(
            srpt_side,
            key=lambda t: (t.scheduling_remaining, t.arrival, t.txn_id),
        ) if srpt_side else None
        if t_edf is None:
            return t_srpt
        if t_srpt is None:
            return t_edf
        ni_edf = negative_impact_edf(t_edf.scheduling_remaining)
        ni_srpt = negative_impact_srpt(
            t_srpt.scheduling_remaining,
            slack(t_edf.deadline, t_edf.scheduling_remaining, now),
        )
        return t_edf if ni_edf < ni_srpt else t_srpt

    def sort_key(self, txn, now):  # pragma: no cover - unused
        raise NotImplementedError


def schedules_match(txns, optimised, naive):
    fast = Simulator(txns, optimised).run()
    slow = Simulator(txns, naive).run()
    return [r.finish for r in fast.records] == pytest.approx(
        [r.finish for r in slow.records]
    )


PAIRS = [
    (EDF, NaiveEDF),
    (SRPT, NaiveSRPT),
    (LeastSlack, NaiveLS),
]


@pytest.mark.parametrize("fast_cls,slow_cls", PAIRS)
@given(txns=transaction_pools(max_size=10))
@settings(max_examples=25, deadline=None)
def test_heap_policies_match_naive_rescan(fast_cls, slow_cls, txns):
    assert schedules_match(txns, fast_cls(), slow_cls())


@given(txns=transaction_pools(max_size=10))
@settings(max_examples=25, deadline=None)
def test_hdf_matches_naive_rescan_weighted(txns):
    # Give the pool distinct weights so density actually matters.
    for i, txn in enumerate(txns):
        txn.weight = 1.0 + (i % 5)
    assert schedules_match(txns, HDF(), NaiveHDF())


@given(txns=transaction_pools(max_size=10))
@settings(max_examples=40, deadline=None)
def test_asets_matches_naive_rescan(txns):
    assert schedules_match(txns, make_policy("asets"), NaiveASETS())
