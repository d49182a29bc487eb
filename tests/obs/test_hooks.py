"""Engine hook emission: which callbacks fire, with what, in what order."""

import pytest

from repro.obs.hooks import Instrument, MultiInstrument, NullInstrument
from repro.policies import EDF, FCFS
from repro.sim.engine import Simulator
from tests.conftest import make_txn


class SpyInstrument(Instrument):
    """Records every callback as (name, payload) tuples."""

    def __init__(self):
        self.calls = []

    def on_run_start(self, policy_name, n_transactions, servers):
        self.calls.append(("run_start", policy_name, n_transactions, servers))

    def on_arrival(self, txn, now):
        self.calls.append(("arrival", txn.txn_id, now))

    def on_dispatch(self, txn, now, overhead):
        self.calls.append(("dispatch", txn.txn_id, now, overhead))

    def on_preempt(self, txn, now):
        self.calls.append(("preempt", txn.txn_id, now))

    def on_overhead(self, txn, amount, now):
        self.calls.append(("overhead", txn.txn_id, amount, now))

    def on_completion(self, txn, now):
        self.calls.append(("completion", txn.txn_id, now))

    def on_scheduling_point(self, now, ready, running, select_seconds):
        self.calls.append(("sched", now, ready, running, select_seconds))

    def on_run_end(self, now, summary):
        self.calls.append(("run_end", now))
        self.summary = summary

    def names(self):
        return [c[0] for c in self.calls]


def test_hooks_fire_for_a_simple_run():
    txns = [
        make_txn(1, arrival=0.0, length=2.0),
        make_txn(2, arrival=1.0, length=1.0),
    ]
    spy = SpyInstrument()
    Simulator(txns, FCFS(), instrument=spy).run()
    names = spy.names()
    assert names[0] == "run_start"
    assert names[-1] == "run_end"
    assert names.count("arrival") == 2
    assert names.count("completion") == 2
    assert ("arrival", 1, 0.0) in spy.calls
    assert ("arrival", 2, 1.0) in spy.calls


def test_run_start_carries_policy_and_scale():
    txns = [make_txn(1), make_txn(2)]
    spy = SpyInstrument()
    Simulator(txns, EDF(), servers=2, instrument=spy).run()
    assert spy.calls[0] == ("run_start", "edf", 2, 2)


def test_preempt_hook_fires_on_real_preemption():
    # EDF: long low-priority txn 1 starts, then tight-deadline txn 2
    # arrives and takes the server.
    txns = [
        make_txn(1, arrival=0.0, length=10.0, deadline=100.0),
        make_txn(2, arrival=1.0, length=1.0, deadline=3.0),
    ]
    spy = SpyInstrument()
    result = Simulator(txns, EDF(), instrument=spy).run()
    preempts = [c for c in spy.calls if c[0] == "preempt"]
    assert preempts == [("preempt", 1, 1.0)]
    assert result.total_preemptions == 1


def test_scheduling_point_reports_backlog_and_busy_servers():
    # Two ready transactions, one server: after dispatch one remains ready.
    txns = [
        make_txn(1, arrival=0.0, length=5.0),
        make_txn(2, arrival=0.0, length=5.0),
    ]
    spy = SpyInstrument()
    Simulator(txns, FCFS(), instrument=spy).run()
    first_sched = next(c for c in spy.calls if c[0] == "sched")
    _, now, ready, running, select_seconds = first_sched
    assert now == 0.0
    assert ready == 1
    assert running == 1
    assert select_seconds >= 0.0


def test_dispatch_order_within_an_instant():
    # Within one instant: arrivals are handled before the dispatch, and
    # the scheduling point closes the instant.
    txns = [make_txn(1, arrival=0.0, length=1.0)]
    spy = SpyInstrument()
    Simulator(txns, FCFS(), instrument=spy).run()
    assert spy.names() == [
        "run_start", "arrival", "dispatch", "sched", "completion", "run_end",
    ]


def test_overhead_hook_reports_paid_overhead():
    txns = [make_txn(1, arrival=0.0, length=2.0, deadline=50.0)]
    spy = SpyInstrument()
    Simulator(txns, FCFS(), preemption_overhead=0.5, instrument=spy).run()
    paid = sum(c[2] for c in spy.calls if c[0] == "overhead")
    assert paid == pytest.approx(0.5)


def test_null_instrument_is_all_noops():
    null = NullInstrument()
    null.on_run_start("edf", 1, 1)
    null.on_arrival(make_txn(), 0.0)
    null.on_dispatch(make_txn(), 0.0, 0.0)
    null.on_preempt(make_txn(), 0.0)
    null.on_overhead(make_txn(), 0.1, 0.0)
    null.on_completion(make_txn(), 0.0)
    null.on_scheduling_point(0.0, 0, 0, 0.0)
    null.on_run_end(0.0, None)


def test_run_end_hands_over_the_results_summary():
    txns = [
        make_txn(1, arrival=0.0, length=2.0, deadline=1.0),
        make_txn(2, arrival=1.0, length=1.0),
    ]
    spy = SpyInstrument()
    result = Simulator(txns, FCFS(), instrument=spy).run()
    assert spy.calls[-1] == ("run_end", 3.0)
    assert spy.summary is result.stream_summary
    assert spy.summary.completed == 2 and spy.summary.tardy == 1


def test_multi_instrument_fans_out_in_order():
    a, b = SpyInstrument(), SpyInstrument()
    txns = [make_txn(1, arrival=0.0, length=1.0)]
    Simulator(txns, FCFS(), instrument=MultiInstrument([a, b])).run()
    assert a.calls == b.calls
    assert a.names()[0] == "run_start"


def test_multi_instrument_tolerates_null_members():
    spy = SpyInstrument()
    multi = MultiInstrument([NullInstrument(), spy])
    txns = [make_txn(1, arrival=0.0, length=1.0)]
    Simulator(txns, FCFS(), instrument=multi).run()
    assert "completion" in spy.names()


def test_engine_counts_survive_reset_between_runs():
    txns = [
        make_txn(1, arrival=0.0, length=10.0, deadline=100.0),
        make_txn(2, arrival=1.0, length=1.0, deadline=3.0),
    ]
    sim = Simulator(txns, EDF())
    first = sim.run()
    for txn in txns:
        txn.reset()
    sim2 = Simulator(txns, EDF())
    second = sim2.run()
    assert first.scheduling_points == second.scheduling_points
    assert first.total_preemptions == second.total_preemptions == 1
