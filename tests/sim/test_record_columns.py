"""The per-transaction records of a result, kept as typed columns.

``SimulationResult.records`` is a read-only sequence over one ``array``
per :class:`TransactionRecord` field.  What a caller reads back must be
exactly the records a run used to keep as tuples: the oracle here is
:meth:`TransactionRecord.from_transaction` over the finished pool, and
a digest of every record's ``repr`` pins the values themselves.
"""

import gc
import hashlib
import pickle
import tracemalloc

import pytest

from repro.core.transaction import TransactionState
from repro.errors import SimulationError
from repro.experiments import runner
from repro.experiments.config import TRANSACTION_LEVEL_POLICIES, PolicySpec
from repro.faults import parse_fault_spec
from repro.policies import available_policies
from repro.sim.results import (
    RecordColumns,
    SimulationResult,
    StreamSummary,
    TransactionRecord,
)
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec
from tests.conftest import make_txn

FAULTED = "abort_prob=0.2,max_retries=1,stall_prob=0.1,crash_count=1"
#: The faulted plan sheds nothing; a backlog limit adds transactions
#: shed before they ever ran (``first_start`` None).
MODES = {
    "clean": None,
    "faults": parse_fault_spec(f"{FAULTED},seed=5"),
    "shed": parse_fault_spec("abort_prob=0.2,max_retries=1,backlog_limit=8,seed=5"),
}

#: sha256 over ``repr(tuple(result.records))`` for every registry policy
#: and mode, in the order the ``runs`` fixture makes them.  Taken from the
#: records the engine built as one tuple per transaction.
RECORDS_DIGEST = "9ddfeffc71dc5d317082b7ea3c8298326860e6ec14d0604f67b30eb8461b5998"


def _spec_of(name):
    if name == "balance-aware":
        return PolicySpec.of(name, time_rate=50.0)
    return PolicySpec.of(name)


def _oracle(workload):
    """The records of the finished pool, built one tuple at a time."""
    ordered = sorted(workload.transactions, key=lambda t: t.txn_id)
    return [TransactionRecord.from_transaction(t) for t in ordered]


@pytest.fixture(scope="module")
def runs():
    """(policy, mode, result, oracle records) for every registry policy."""
    workload = generate(
        WorkloadSpec(
            n_transactions=120, utilization=1.2, weighted=True, with_workflows=True
        ),
        seed=4,
    )
    out = []
    for name in available_policies():
        for mode, faults in MODES.items():
            result = runner.run_policy_on(workload, _spec_of(name), faults=faults)
            out.append((name, mode, result, _oracle(workload)))
    return out


def test_records_equal_the_tuple_records_field_by_field(runs):
    outcomes, unstarted, retried = set(), 0, 0
    for name, mode, result, oracle in runs:
        records = tuple(result.records)
        assert len(records) == len(oracle) == result.n, (name, mode)
        for got, want in zip(records, oracle):
            assert type(got) is TransactionRecord
            for field in TransactionRecord._fields:
                a, b = getattr(got, field), getattr(want, field)
                assert a == b and type(a) is type(b), (name, mode, field)
        outcomes.update(r.outcome for r in records)
        unstarted += sum(r.first_start is None for r in records)
        retried += sum(r.retries > 0 for r in records)
    # The matrix covers every outcome, unstarted work and retries.
    assert outcomes == {"completed", "aborted", "shed"}
    assert unstarted > 0 and retried > 0


def test_records_digest_is_pinned(runs):
    digest = hashlib.sha256()
    for _, _, result, _ in runs:
        digest.update(repr(tuple(result.records)).encode())
    assert digest.hexdigest() == RECORDS_DIGEST


def test_queries_agree_with_the_records(runs):
    for name, mode, result, oracle in runs:
        by_id = {r.txn_id: r for r in oracle}
        for r in oracle[::7]:
            assert result.record_of(r.txn_id) == r
        assert result.tardiness_by_id() == {i: r.tardiness for i, r in by_id.items()}
        assert result.tardy_records() == [
            r for r in oracle if r.outcome == "completed" and not r.met_deadline
        ]
        assert result.finish_order() == [
            r.txn_id for r in sorted(oracle, key=lambda r: r.finish)
        ]
        assert StreamSummary.from_records(
            result.records
        ) == StreamSummary.from_records(oracle), (name, mode)


class TestSequenceContract:
    @pytest.fixture
    def result(self, runs):
        return next(r for name, mode, r, _ in runs if mode == "shed")

    def test_indexing_and_slicing(self, result):
        records = result.records
        whole = tuple(records)
        assert records[0] == whole[0]
        assert records[-1] == whole[-1]
        assert records[-len(whole)] == whole[0]
        assert isinstance(records[3:9], RecordColumns)
        assert records[3:9] == whole[3:9]
        assert records[::-2] == whole[::-2]
        assert records[5:5] == ()
        for bad in (len(whole), -len(whole) - 1):
            with pytest.raises(IndexError):
                records[bad]

    def test_records_are_built_per_read(self, result):
        records = result.records
        assert records[0] is not records[0]
        assert next(iter(records)) is not next(iter(records))

    def test_equality(self, result):
        whole = tuple(result.records)
        assert result.records == whole
        assert result.records == list(whole)
        assert result.records != whole[:-1]
        assert result.records != whole[:-1] + (whole[0],)
        assert result.records != "not records"

    def test_pickle_round_trip(self, result):
        back = pickle.loads(pickle.dumps(result.records))
        assert type(back) is RecordColumns
        assert back == result.records
        copy = pickle.loads(pickle.dumps(result))
        assert copy.records == result.records
        assert copy.stream_summary == result.stream_summary

    def test_streaming_result_records_equal_empty(self):
        workload = generate(WorkloadSpec(n_transactions=30), seed=1)
        result = runner.run_policy_on(
            workload, PolicySpec.of("edf"), retain_records=False
        )
        assert result.records == ()
        assert len(result.records) == 0

    def test_record_of_missing_id_raises_key_error(self, result):
        with pytest.raises(KeyError, match="no record for transaction"):
            result.record_of(10**6)
        with pytest.raises(KeyError):
            result.record_of(-1)

    def test_hand_built_records_keep_their_order(self):
        records = [
            TransactionRecord(7, 0.0, 1.0, 2.0, 1.0, 3.0, 0.5, 0),
            TransactionRecord(2, 0.0, 1.0, 5.0, 1.0, 1.0, None, 0, "shed"),
            TransactionRecord(4, 1.0, 1.0, 4.0, 2.0, 2.5, 1.0, 1, "completed", 2),
        ]
        result = SimulationResult("x", records)
        assert result.records == records
        for r in records:
            assert result.record_of(r.txn_id) == r
        assert result.finish_order() == [2, 4, 7]

    def test_unknown_outcome_raises(self):
        bad = TransactionRecord(1, 0.0, 1.0, 2.0, 1.0, 1.0, 0.0, 0, "lost")
        summary = StreamSummary.from_records([bad._replace(outcome="shed")])
        with pytest.raises(SimulationError, match="outcome"):
            SimulationResult("x", [bad], stream_summary=summary)


class TestUnrecordablePools:
    def test_unfinished_transaction_raises(self):
        txn = make_txn()
        with pytest.raises(SimulationError, match="did not finish"):
            TransactionRecord.from_transaction(txn)
        with pytest.raises(SimulationError, match="did not finish"):
            RecordColumns.from_transactions([txn])

    def test_completed_without_start_raises(self):
        txn = make_txn()
        txn.state = TransactionState.COMPLETED
        txn.finish_time = 3.0
        with pytest.raises(SimulationError, match="without ever starting"):
            TransactionRecord.from_transaction(txn)
        with pytest.raises(SimulationError, match="without ever starting"):
            RecordColumns.from_transactions([txn])


def test_retained_bytes_per_transaction():
    """Five kept results of a faulted 1,000-transaction workload hold at
    most 100 bytes a transaction (one tuple per record held ~170)."""
    workload = generate(WorkloadSpec(n_transactions=1000, utilization=0.9), seed=1)
    faults = parse_fault_spec(f"{FAULTED},seed=3")
    tracemalloc.start()
    try:
        results = [
            runner.run_policy_on(workload, spec, faults=faults)
            for spec in TRANSACTION_LEVEL_POLICIES
        ]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        n = sum(r.n for r in results)
        del results
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n == 5000
    assert retained / n <= 100, f"{retained / n:.1f} B per transaction"
