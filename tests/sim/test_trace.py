"""Who ran when: the segments a run's event log folds into.

``reconstruct(recorder.events).segments`` is the simulator's only
record of server occupations.  These tests pin its coalescing: a
transaction that keeps its server across scheduling points is one
segment, on any number of servers, and a preemption splits it.
"""

from repro.faults.plan import plan_faults
from repro.faults.spec import parse_fault_spec
from repro.obs.analyze.lifecycle import Segment, reconstruct
from repro.policies import EDF, SRPT, make_policy
from repro.workload import WorkloadSpec, generate
from tests.conftest import busy_time, first_execution_order, make_txn, run_segments


def test_slices_record_in_order():
    t1 = make_txn(1, arrival=0.0, length=2.0, deadline=100.0)
    t2 = make_txn(2, arrival=2.0, length=3.0, deadline=100.0)
    _, segments = run_segments([t1, t2], EDF())
    assert [s.txn_id for s in segments] == [1, 2]
    assert busy_time(segments) == 5.0


def test_adjacent_same_transaction_coalesced():
    # T2's arrival is a scheduling point at which T1 keeps its server.
    t1 = make_txn(1, arrival=0.0, length=3.0, deadline=4.0)
    t2 = make_txn(2, arrival=2.0, length=1.0, deadline=100.0)
    _, segments = run_segments([t1, t2], EDF())
    assert segments[0] == Segment(1, 0.0, 3.0)


def test_gap_prevents_coalescing():
    long = make_txn(1, arrival=0.0, length=4.0, deadline=100.0)
    short = make_txn(2, arrival=2.0, length=1.0, deadline=100.0)
    _, segments = run_segments([long, short], SRPT())
    assert segments == (
        Segment(1, 0.0, 2.0), Segment(2, 2.0, 3.0), Segment(1, 3.0, 5.0)
    )


def test_order_of_first_execution():
    t1 = make_txn(1, arrival=0.0, length=4.0, deadline=100.0)
    t2 = make_txn(2, arrival=0.0, length=1.0, deadline=100.0)
    _, segments = run_segments([t1, t2], SRPT())
    assert first_execution_order(segments) == [2, 1]


def test_slices_of_single_transaction():
    long = make_txn(1, arrival=0.0, length=2.0, deadline=100.0)
    short = make_txn(2, arrival=1.0, length=0.5, deadline=100.0)
    _, segments = run_segments([long, short], SRPT())
    assert [s.duration for s in segments if s.txn_id == 1] == [1.0, 1.0]


def test_non_adjacent_same_txn_slices_stay_separate():
    # Same transaction, but a different transaction ran in between.
    long = make_txn(1, arrival=0.0, length=4.0, deadline=100.0)
    short = make_txn(2, arrival=2.0, length=1.0, deadline=100.0)
    _, segments = run_segments([long, short], SRPT())
    assert len(segments) == 3
    assert [s.duration for s in segments if s.txn_id == 1] == [2.0, 2.0]


def test_zero_length_slice_does_not_break_coalescing_chain():
    # Repeated continuation dispatches at one instant add nothing: the
    # segment still runs from the first dispatch to the completion.
    log = [
        {"schema": 1, "kind": "run_start", "t": 0.0, "policy": "x", "n": 1},
        {"kind": "arrival", "t": 0.0, "txn": 1},
        {"kind": "dispatch", "t": 0.0, "txn": 1},
        {"kind": "dispatch", "t": 2.0, "txn": 1},
        {"kind": "dispatch", "t": 2.0, "txn": 1},
        {"kind": "completion", "t": 3.0, "txn": 1, "tardiness": 0.0},
    ]
    assert reconstruct(log).segments == (Segment(1, 0.0, 3.0),)


def test_zero_length_slices_ignored():
    # No run, clean or faulted, on one server or two, records an empty
    # server occupation.
    workload = generate(
        WorkloadSpec(n_transactions=80, utilization=1.2, with_workflows=True), seed=5
    )
    for policy in ("edf", "srpt", "asets-star", "balance-aware"):
        kwargs = {"time_rate": 0.01} if policy == "balance-aware" else {}
        for servers in (1, 2):
            for faults in (None, "seed=3,abort_prob=0.3,stall_prob=0.2,crash_count=2"):
                plan = None if faults is None else plan_faults(
                    parse_fault_spec(faults), workload.transactions, servers
                )
                _, segments = run_segments(
                    workload.transactions,
                    make_policy(policy, **kwargs),
                    workflow_set=workload.workflow_set,
                    servers=servers,
                    faults=plan,
                )
                assert segments
                assert all(s.end > s.start for s in segments), (policy, servers, faults)


def test_interleaved_servers_do_not_coalesce_across_transactions():
    # Two servers, each transaction keeps its server across T3's
    # arrival: one segment each, never merged across transactions.
    txns = [
        make_txn(1, arrival=0.0, length=4.0, deadline=10.0),
        make_txn(2, arrival=0.0, length=4.0, deadline=10.0),
        make_txn(3, arrival=2.0, length=1.0, deadline=100.0),
    ]
    _, segments = run_segments(txns, EDF(), servers=2)
    assert segments[:2] == (Segment(1, 0.0, 4.0), Segment(2, 0.0, 4.0))
    assert busy_time(segments) == 9.0


def test_multiserver_unpreempted_transaction_is_one_segment():
    # T2's arrival is a scheduling point on the other server; T1 is
    # never preempted, so it is one segment from dispatch to completion.
    t1 = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
    t2 = make_txn(2, arrival=1.0, length=1.0, deadline=100.0)
    _, segments = run_segments([t1, t2], SRPT(), servers=2)
    assert [s for s in segments if s.txn_id == 1] == [Segment(1, 0.0, 10.0)]
    assert segments == (Segment(1, 0.0, 10.0), Segment(2, 1.0, 2.0))
