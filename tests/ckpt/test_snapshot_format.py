"""The checkpoint file format: header, validation, atomicity, caps."""

import gc
import io
import json
import pickle
import weakref
from array import array

import pytest

from repro.ckpt import snapshot
from repro.ckpt import (
    CKPT_MAGIC,
    CKPT_VERSION,
    Checkpointer,
    load_checkpoint,
    restore_writer,
)
from repro.core.transaction import Transaction
from repro.core.workflow import AGGREGATE_SLOTS, Workflow
from repro.core.workflow_set import WorkflowSet
from repro.errors import CheckpointError
from repro.experiments.config import PolicySpec
from repro.experiments.runner import generate_workloads, run_policy_on
from repro.obs import NullInstrument, Recorder, RunTelemetry, StreamingRecorder
from repro.policies.asets import ASETS
from repro.sim.engine import Simulator
from repro.sim.event_queue import _from_columns
from repro.sim.events import Event, EventKind
from repro.workload.spec import WorkloadSpec


class _V5Table:
    """Pickles as a format-5 ``TxnTable``: three columns more than today's."""

    def __init__(self, table):
        self.table = table

    def __reduce__(self):
        cls = type(self.table)
        state = {name: getattr(self.table, name) for name in cls.__slots__}
        state.update(deadline=array("d"), length=array("d"), weight=array("d"))
        return object.__new__, (cls,), (None, state)


def _sections(data):
    """Offsets of a checkpoint's header newline, pool and state sections."""
    header_end = data.index(b"\n", len(CKPT_MAGIC))
    pool_at = header_end + 1 + snapshot._LENGTH_BYTES
    state_at = pool_at + int.from_bytes(data[header_end + 1 : pool_at], "little")
    return header_end, pool_at, state_at


def _blob(path):
    """The whole object graph of a checkpoint, as formats up to 7 pickled it."""
    return load_checkpoint(path)._blob


def _rewrite_state(path, edit, shift=0):
    """Re-pickle a checkpoint's state section after ``edit(state)``, with
    every pool reference moved ``shift`` places along the pool."""
    data = path.read_bytes()
    header_end, pool_at, state_at = _sections(data)
    n = json.loads(data[len(CKPT_MAGIC) : header_end])["n"]
    objects, _ = snapshot._rebuild_pool(data[pool_at:state_at], n)
    state = snapshot._StateUnpickler(data[state_at:], objects).load()
    edit(state)
    if shift:
        objects = (None,) * shift + objects
    buffer = io.BytesIO()
    snapshot._dump_state(buffer, state, snapshot._reference_table(objects))
    path.write_bytes(data[:state_at] + buffer.getvalue())


class _V1Queue:
    """Pickles as a format-1 ``EventQueue``: ``(sort_key, event)`` pairs."""

    def __init__(self, queue):
        self.queue = queue

    def __reduce__(self):
        pairs = [(tuple(event[:3]), event) for event in self.queue._heap]
        return object.__new__, (type(self.queue),), (None, {"_heap": pairs})


@pytest.fixture
def checkpoint_path(tmp_path):
    workload = generate_workloads(
        WorkloadSpec(n_transactions=80, utilization=0.9), [3]
    )[0]
    path = tmp_path / "run.ckpt"
    run_policy_on(
        workload,
        PolicySpec.of("asets"),
        checkpoint_every=30,
        checkpointer=Checkpointer(path, metadata={"target": "test"}),
    )
    return path


class TestFileLayout:
    def test_magic_and_inspectable_header(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        assert data.startswith(CKPT_MAGIC)
        header_line = data[len(CKPT_MAGIC) : data.index(b"\n", len(CKPT_MAGIC))]
        header = json.loads(header_line)
        assert header["version"] == CKPT_VERSION
        assert header["policy"] == "asets"
        assert header["n"] == 80
        assert header["servers"] == 1
        assert header["metadata"] == {"target": "test"}
        assert header["events_processed"] >= 30

    def test_load_round_trips_header(self, checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        assert checkpoint.policy_name == "asets"
        assert checkpoint.n == 80
        assert checkpoint.metadata == {"target": "test"}
        assert checkpoint.writer_state is None

    def test_save_leaves_no_temp_file(self, checkpoint_path):
        assert not checkpoint_path.with_name(
            checkpoint_path.name + ".tmp"
        ).exists()


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "alien.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(CKPT_MAGIC + b'{"version": 1')
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(CKPT_MAGIC + b"{nope}\n" + b"rest")
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            load_checkpoint(path)

    def test_header_field_skew(self, tmp_path):
        path = tmp_path / "skew.ckpt"
        path.write_bytes(CKPT_MAGIC + b'{"version": 1}\n' + b"rest")
        with pytest.raises(CheckpointError, match="header fields"):
            load_checkpoint(path)

    def test_unsupported_version(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        header["version"] = CKPT_VERSION + 1
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + data[end:]
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(checkpoint_path)

    def test_v1_checkpoint_rejected_at_load(self, checkpoint_path):
        # Format 1 kept the event heap as ``(sort_key, event)`` wrappers
        # around dataclass events; resuming one on the tuple-event engine
        # would crash at the first heap comparison.  The header version
        # must stop it at load instead.
        assert CKPT_VERSION > 1
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        blob = _blob(checkpoint_path)
        blob["core"]["_events"] = _V1Queue(blob["core"]["_events"])
        header["version"] = 1
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + b"\n"
            + pickle.dumps(blob)
        )
        with pytest.raises(CheckpointError, match="checkpoint version 1"):
            load_checkpoint(checkpoint_path)

    def test_v2_checkpoint_rejected_at_load(self, tmp_path):
        # Format 2 pickled ASETSStar with an ``incremental`` flag; in its
        # reference-scan mode the heaps stayed empty and the active
        # workflows lived in a dict.  Today's single heap path would
        # resume such a snapshot with empty lists and no error — the
        # header version must stop it at load instead.
        assert CKPT_VERSION > 2
        workload = generate_workloads(
            WorkloadSpec(n_transactions=80, utilization=0.9, with_workflows=True),
            [3],
        )[0]
        path = tmp_path / "star.ckpt"
        run_policy_on(
            workload,
            PolicySpec.of("asets-star"),
            checkpoint_every=30,
            checkpointer=Checkpointer(path, metadata={"target": "test"}),
        )
        data = path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        blob = _blob(path)
        policy = blob["policy_state"]
        policy._incremental = False
        policy._active = {wf.wf_id: wf for wf in workload.workflow_set}
        for heap in (policy._edf, policy._hdf, policy._alarm):
            heap.clear()
        header["version"] = 2
        path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + b"\n"
            + pickle.dumps(blob)
        )
        with pytest.raises(CheckpointError, match="checkpoint version 2"):
            load_checkpoint(path)

    def test_v3_checkpoint_rejected_at_load(self, tmp_path):
        # Format 3 pickled a buffered Recorder whole, as an ``"object"``
        # instrument entry; today's Recorder is a StreamingRecorder that
        # rides as state, and an unpickled old one would have none of
        # its streaming fields.  The header version must stop it at
        # load instead.
        assert CKPT_VERSION > 3
        workload = generate_workloads(
            WorkloadSpec(n_transactions=80, utilization=0.9), [3]
        )[0]
        path = tmp_path / "buffered.ckpt"
        recorder = Recorder()
        run_policy_on(
            workload,
            PolicySpec.of("asets"),
            instrument=recorder,
            checkpoint_every=30,
            checkpointer=Checkpointer(path, instrument=recorder, max_saves=1),
        )
        data = path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        blob = _blob(path)
        blob["instrument"] = {"kind": "object", "object": recorder}
        header["version"] = 3
        path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + b"\n"
            + pickle.dumps(blob)
        )
        with pytest.raises(CheckpointError, match="checkpoint version 3"):
            load_checkpoint(path)

    def test_v4_asets_checkpoint_rejected_at_load(self, tmp_path):
        # Format 4 pickled transaction-level ASETS with its own three
        # transaction heaps (EDF, migration, SRPT); today's ASETS is
        # ASETS* over singletons and would resume such a state with no
        # workflow heaps at all.  The header version must stop it at
        # load instead.
        assert CKPT_VERSION > 4
        workload = generate_workloads(
            WorkloadSpec(n_transactions=80, utilization=0.9), [3]
        )[0]
        path = tmp_path / "asets.ckpt"
        run_policy_on(
            workload,
            PolicySpec.of("asets"),
            checkpoint_every=30,
            checkpointer=Checkpointer(path, max_saves=1),
        )
        data = path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        blob = _blob(path)
        policy = blob["policy_state"]
        for name in ("_serial", "_side", "_hdf", "_alarm"):
            delattr(policy, name)
        policy._edf, policy._migrate, policy._srpt = [], [], []
        header["version"] = 4
        path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + b"\n"
            + pickle.dumps(blob)
        )
        with pytest.raises(CheckpointError, match="checkpoint version 4"):
            load_checkpoint(path)

    def test_v5_table_checkpoint_rejected_at_load(self, checkpoint_path):
        # Format 5 pickled the SoA table with deadline/length/weight
        # columns that today's TxnTable has no slots for: unpickling one
        # fails with a bare AttributeError.  The header version must
        # stop it at load instead.
        assert CKPT_VERSION > 5
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        blob = _blob(checkpoint_path)
        blob["core"]["_table"] = _V5Table(blob["core"]["_table"])
        payload = pickle.dumps(blob)
        with pytest.raises(AttributeError):
            pickle.loads(payload)
        header["version"] = 5
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + b"\n"
            + payload
        )
        with pytest.raises(CheckpointError, match="checkpoint version 5"):
            load_checkpoint(checkpoint_path)

    def test_v6_telemetry_checkpoint_rejected_at_load(self, tmp_path):
        # Format 6 carried a RunTelemetry state with outcome counters,
        # running sums and two moments, and no run summary; today's
        # telemetry cannot rebuild from it (no ``summary`` key).  The
        # header version must stop it at load instead.
        assert CKPT_VERSION > 6
        workload = generate_workloads(
            WorkloadSpec(n_transactions=80, utilization=0.9), [3]
        )[0]
        path = tmp_path / "stream.ckpt"
        recorder = StreamingRecorder()
        run_policy_on(
            workload,
            PolicySpec.of("asets"),
            instrument=recorder,
            retain_records=False,
            checkpoint_every=30,
            checkpointer=Checkpointer(path, instrument=recorder, max_saves=1),
        )
        data = path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        blob = _blob(path)
        telemetry = blob["instrument"]["state"]["telemetry"]
        del telemetry["summary"]
        moments = {"count": 0, "mean": 0.0, "m2": 0.0, "min": 0.0, "max": 0.0}
        telemetry.update(
            dict.fromkeys(
                ("arrivals", "completed", "tardy", "aborted", "shed",
                 "retries", "preemptions"),
                0,
            ),
            tardiness_total=0.0, response_total=0.0, weighted_total=0.0,
            weighted_max=0.0, makespan=0.0,
            tardiness_moments=moments, response_moments=dict(moments),
        )
        with pytest.raises(KeyError, match="summary"):
            RunTelemetry.from_state(telemetry)
        header["version"] = 6
        path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + b"\n"
            + pickle.dumps(blob)
        )
        with pytest.raises(CheckpointError, match="checkpoint version 6"):
            load_checkpoint(path)

    def test_instrument_without_state_cannot_checkpoint(self, tmp_path):
        workload = generate_workloads(
            WorkloadSpec(n_transactions=80, utilization=0.9), [3]
        )[0]
        with pytest.raises(CheckpointError, match="to_state"):
            run_policy_on(
                workload,
                PolicySpec.of("asets"),
                instrument=NullInstrument(),
                checkpoint_every=30,
                checkpointer=Checkpointer(
                    tmp_path / "x.ckpt", instrument=NullInstrument()
                ),
            )

    def test_torn_payload(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        checkpoint_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
            load_checkpoint(checkpoint_path)

    def test_blob_field_skew(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        _, _, state_at = _sections(data)
        checkpoint_path.write_bytes(
            data[:state_at] + pickle.dumps({"core": {}})
        )
        with pytest.raises(CheckpointError, match="payload fields"):
            load_checkpoint(checkpoint_path)

    def test_core_schema_skew(self, checkpoint_path):
        _rewrite_state(checkpoint_path, lambda state: state["core"].pop("_events"))
        with pytest.raises(CheckpointError, match="version skew"):
            load_checkpoint(checkpoint_path)

    def test_pool_field_in_the_state_core_is_schema_skew(self, checkpoint_path):
        # The pool fields are rebuilt from the pool section; a state core
        # that carries one too is another engine's schema.
        _rewrite_state(
            checkpoint_path,
            lambda state: state["core"].update(_dependents={}),
        )
        with pytest.raises(CheckpointError, match="version skew"):
            load_checkpoint(checkpoint_path)

    def test_rewritten_state_still_loads(self, checkpoint_path):
        # The helper the corruption tests build on round-trips a file.
        _rewrite_state(checkpoint_path, lambda state: None)
        assert load_checkpoint(checkpoint_path).n == 80


class TestVersion8Layout:
    def test_v7_checkpoint_rejected_before_unpickling(
        self, checkpoint_path, monkeypatch
    ):
        # Format 7 wrote the whole object graph as one pickle right after
        # the header.  The header version must stop it before a byte of
        # the payload is unpickled.
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        payload = pickle.dumps(_blob(checkpoint_path))
        header["version"] = 7
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + b"\n"
            + payload
        )

        def no_unpickling(*args, **kwargs):
            raise AssertionError("a v7 payload was unpickled")

        monkeypatch.setattr(snapshot.pickle, "loads", no_unpickling)
        monkeypatch.setattr(snapshot._StateUnpickler, "load", no_unpickling)
        with pytest.raises(CheckpointError, match="checkpoint version 7"):
            load_checkpoint(checkpoint_path)

    def test_v8_asets_checkpoint_rejected_at_load(self, checkpoint_path):
        # Format 8 pickled every policy with a copy of the pool, and ASETS
        # with a txn-id index and its singleton view by value: singletons
        # with no reference to their view, which today's singletons need
        # to pickle.  The header version must stop it at load instead.
        assert CKPT_VERSION > 8

        def v8_policy(state):
            policy = state["policy_state"]
            view = policy.workflow_set
            policy._transactions = dict(view.transactions)
            policy._singleton_of = {wf.root_id: wf for wf in view}

        _rewrite_state(checkpoint_path, v8_policy)
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        header["version"] = 8
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + data[end:]
        )
        with pytest.raises(CheckpointError, match="checkpoint version 8"):
            load_checkpoint(checkpoint_path)

    def test_v9_trace_checkpoint_rejected_at_load(self, checkpoint_path):
        # Format 9's engine core carried a ``_trace`` field, which today's
        # engine no longer has (who ran when is read from the event
        # log).  The header version must stop it at load instead.
        assert CKPT_VERSION > 9
        _rewrite_state(
            checkpoint_path, lambda state: state["core"].update(_trace=None)
        )
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        header["version"] = 9
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + data[end:]
        )
        with pytest.raises(CheckpointError, match="checkpoint version 9"):
            load_checkpoint(checkpoint_path)

    def test_v10_pending_arrivals_checkpoint_rejected_at_load(
        self, checkpoint_path
    ):
        # Format 10 pickled every pending arrival in the event heap, as
        # one list per Event field; today's queue pickles its arrival
        # lane's cursor ahead of the heap columns.  The header version
        # must stop it at load instead.
        assert CKPT_VERSION > 10

        class V10Queue:
            def __init__(self, queue):
                self.queue = queue

            def __reduce__(self):
                q = self.queue
                lane = q._lane
                pending = [
                    Event(lane.arrival[i], EventKind.ARRIVAL, i, lane.ids[i])
                    for i in range(q._next, len(lane.ids))
                ]
                heap = q._heap + pending
                columns = tuple(map(list, zip(*heap)))
                return _from_columns, columns

        _rewrite_state(
            checkpoint_path,
            lambda state: state["core"].update(
                _events=V10Queue(state["core"]["_events"])
            ),
        )
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        header = json.loads(data[len(CKPT_MAGIC) : end])
        header["version"] = 10
        checkpoint_path.write_bytes(
            CKPT_MAGIC
            + json.dumps(header, separators=(",", ":")).encode()
            + data[end:]
        )
        with pytest.raises(CheckpointError, match="checkpoint version 10"):
            load_checkpoint(checkpoint_path)

    def test_checkpoint_keeps_the_arrival_cursor_not_the_arrivals(
        self, checkpoint_path
    ):
        # The lane is the rebuilt pool's table (a pool reference), so the
        # state section carries only how many arrivals were served.
        core = load_checkpoint(checkpoint_path).core
        events = core["_events"]
        assert events._lane is core["_table"]
        assert 0 < events._next <= 80
        assert EventKind.ARRIVAL not in {event.kind for event in events._heap}

    def test_layout_is_header_pool_state(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        _, pool_at, state_at = _sections(data)
        pool = pickle.loads(data[pool_at:state_at])
        assert set(pool) == snapshot._POOL_FIELDS
        assert len(pool["txn_id"]) == 80
        assert pool["workflows"] is False  # asets keeps no workflow set
        assert pool_at < state_at < len(data)

    @pytest.mark.parametrize("keep", [0, 5, 200], ids=["length", "head", "body"])
    def test_truncated_pool_section(self, checkpoint_path, keep):
        data = checkpoint_path.read_bytes()
        header_end, pool_at, _ = _sections(data)
        checkpoint_path.write_bytes(data[: header_end + 1 + keep])
        with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
            load_checkpoint(checkpoint_path)

    def test_corrupt_pool_section(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        _, pool_at, state_at = _sections(data)
        garbage = bytes(range(256)) * ((state_at - pool_at) // 256 + 1)
        checkpoint_path.write_bytes(
            data[:pool_at] + garbage[: state_at - pool_at] + data[state_at:]
        )
        with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
            load_checkpoint(checkpoint_path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda pool: pool.pop("weight"),
            lambda pool: pool["arrival"].pop(),
            lambda pool: pool.update(txn_id=pool["txn_id"].tolist()),
            lambda pool: pool["dep_counts"].__setitem__(0, 3),
            lambda pool: pool["length"].__setitem__(0, -1.0),
            lambda pool: pool["txn_id"].__setitem__(1, pool["txn_id"][0]),
        ],
        ids=["missing", "short", "untyped", "deps", "invalid", "duplicate"],
    )
    def test_inconsistent_pool_columns(self, checkpoint_path, edit):
        data = checkpoint_path.read_bytes()
        header_end, pool_at, state_at = _sections(data)
        pool = pickle.loads(data[pool_at:state_at])
        edit(pool)
        section = pickle.dumps(pool)
        checkpoint_path.write_bytes(
            data[: header_end + 1]
            + len(section).to_bytes(snapshot._LENGTH_BYTES, "little")
            + section
            + data[state_at:]
        )
        with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
            load_checkpoint(checkpoint_path)

    def test_pool_reference_out_of_range(self, checkpoint_path):
        _rewrite_state(checkpoint_path, lambda state: None, shift=1000)
        with pytest.raises(CheckpointError, match="out of range"):
            load_checkpoint(checkpoint_path)

    def test_pool_reference_outside_a_load(self):
        with pytest.raises(CheckpointError, match="outside a checkpoint load"):
            snapshot._pool_ref(0)

    def test_slots_split_into_pool_and_state(self):
        # Every slot is either a pool column or a per-save state column:
        # a new slot that is neither would silently not survive a resume.
        static = {name for name, _ in snapshot._POOL_COLUMNS} | {"depends_on"}
        assert static.isdisjoint(snapshot._TXN_SLOTS)
        assert static | set(snapshot._TXN_SLOTS) == set(Transaction.__slots__)
        constructed = {"wf_id", "root_id", "_order", "_member_seq"}
        assert constructed | set(snapshot._WORKFLOW_SLOTS) == set(
            Workflow.__slots__
        )

    def test_nothing_from_the_pool_is_pickled_by_value(
        self, tmp_path, monkeypatch
    ):
        # The mechanism, pinned: every save after the first reuses the
        # pool bytes and writes each pool object as a reference, so no
        # Transaction or Workflow ever reaches its own reduction.
        workload = generate_workloads(
            WorkloadSpec(n_transactions=120, utilization=0.9, with_workflows=True),
            [3],
        )[0]
        golden = run_policy_on(workload, PolicySpec.of("asets-star"))

        def by_value(self, protocol):
            raise AssertionError(f"{type(self).__name__} pickled by value")

        monkeypatch.setattr(Transaction, "__reduce_ex__", by_value)
        monkeypatch.setattr(Workflow, "__reduce_ex__", by_value)
        path = tmp_path / "run.ckpt"
        checkpointer = Checkpointer(path)
        run_policy_on(
            workload,
            PolicySpec.of("asets-star"),
            checkpoint_every=30,
            checkpointer=checkpointer,
        )
        assert checkpointer.saves >= 2
        monkeypatch.undo()
        checkpoint = load_checkpoint(path)
        assert checkpoint.core["_workflows"] is not None
        resumed = Simulator.resume_from(checkpoint).run()
        assert resumed.records == golden.records

    def test_a_pool_it_cannot_rebuild_is_refused_at_save(self, tmp_path):
        # The load rebuilds the pool with the base constructors, so a
        # subclass would resume as a different object: refuse it early.
        class Tagged(Transaction):
            __slots__ = ()

        class Indexed(WorkflowSet):
            pass

        def pool(first=Transaction):
            return [
                first(1, arrival=0.0, length=2.0, deadline=4.0),
                Transaction(2, arrival=0.0, length=1.0, deadline=2.0),
            ]

        tagged = pool(Tagged)
        plain = pool()
        for txns, workflow_set, match in (
            (tagged, None, "holds a subclass"),
            (plain, Indexed(plain), "has a Indexed"),
        ):
            with pytest.raises(CheckpointError, match=match):
                Simulator(
                    txns,
                    PolicySpec.of("edf").make(),
                    workflow_set=workflow_set,
                    checkpoint_every=1,
                    checkpointer=Checkpointer(tmp_path / "x.ckpt"),
                ).run()

    def test_save_and_load_leave_the_pool_to_reference_counting(self, tmp_path):
        # Neither the save's pickler nor the load's unpickler may sit in
        # a reference cycle: their memos hold every object they touched,
        # so a cycle keeps a whole run's pool alive until a collection
        # (an unpickler whose find_class returns one of its own bound
        # methods memoizes that method, and so itself).
        workload = generate_workloads(
            WorkloadSpec(n_transactions=120, utilization=0.9, with_workflows=True),
            [3],
        )[0]
        path = tmp_path / "run.ckpt"
        gc.collect()
        gc.disable()
        try:
            workflow_set = WorkflowSet(workload.transactions)
            saved = weakref.ref(workflow_set)
            checkpointer = Checkpointer(path)
            Simulator(
                workload.transactions,
                PolicySpec.of("asets-star").make(),
                workflow_set=workflow_set,
                checkpoint_every=30,
                checkpointer=checkpointer,
            ).run()
            assert checkpointer.saves >= 2
            del workflow_set
            assert saved() is None
            loaded = weakref.ref(load_checkpoint(path).core["_workflows"])
            assert loaded() is None
        finally:
            gc.enable()

    def test_pool_bytes_are_built_once_per_engine(self, tmp_path, monkeypatch):
        built = []
        original = snapshot._Pool.__init__

        def counting(self, engine):
            built.append(engine)
            original(self, engine)

        monkeypatch.setattr(snapshot._Pool, "__init__", counting)
        workload = generate_workloads(
            WorkloadSpec(n_transactions=120, utilization=0.9), [3]
        )[0]
        checkpointer = Checkpointer(tmp_path / "run.ckpt")
        run_policy_on(
            workload, PolicySpec.of("edf"), checkpoint_every=20,
            checkpointer=checkpointer,
        )
        assert checkpointer.saves >= 3
        assert len(built) == 1
        # A second engine (a fresh run) gets its own pool section.
        run_policy_on(
            workload, PolicySpec.of("edf"), checkpoint_every=20,
            checkpointer=checkpointer,
        )
        assert len(built) == 2 and built[0] is not built[1]


class TestSingletonSnapshot:
    """``ASETS``/``Ready`` pickle their singleton view as columns."""

    @pytest.mark.parametrize(
        "spec",
        [
            PolicySpec.of("asets"),
            PolicySpec.of("ready"),
            PolicySpec.of("non-preemptive", inner="asets"),
        ],
        ids=["asets", "ready", "non-preemptive-asets"],
    )
    def test_state_section_of_a_late_save_stays_small(self, spec, tmp_path):
        # 7,500 weighted workflow transactions: with every singleton
        # pickled by value the state section was 1.94 MB, against
        # 0.71-0.78 MB under the policies whose workflows are pool
        # objects.
        workload = generate_workloads(
            WorkloadSpec(
                n_transactions=7500,
                utilization=0.9,
                weighted=True,
                with_workflows=True,
            ),
            [1],
        )[0]
        path = tmp_path / "late.ckpt"
        checkpointer = Checkpointer(path)
        run_policy_on(
            workload, spec, checkpoint_every=5000, checkpointer=checkpointer
        )
        assert checkpointer.saves >= 2
        data = path.read_bytes()
        _, _, state_at = _sections(data)
        assert b"_Singleton" not in data[state_at:]
        assert len(data) - state_at <= 900_000

    def test_restore_rebuilds_the_view(self, checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        policy = checkpoint.restore_policy()
        pool = checkpoint.core["_txns"]
        view = policy.workflow_set
        assert len(view) == len(pool)
        assert list(view.transactions) == [
            txn.txn_id
            for txn in sorted(pool.values(), key=lambda t: (t.arrival, t.txn_id))
        ]
        for wf_id, wf in enumerate(view):
            (txn,) = wf._member_seq
            assert wf.wf_id == wf_id
            assert txn is pool[txn.txn_id] is view.transactions[txn.txn_id]
            assert view.member_workflows(txn.txn_id) == [wf]
            assert wf._view() is view
        for heap in (policy._edf, policy._hdf, policy._alarm):
            assert all(entry[3] is view._workflows[entry[1]] for entry in heap)
        for marks in (policy._dirty, policy._dirty_weak):
            assert all(wf is view._workflows[wf_id] for wf_id, wf in marks.items())

    @pytest.mark.parametrize("weighted", [False, True])
    def test_pickle_round_trip_keeps_the_view(self, weighted):
        pool = [
            Transaction(i, arrival=i % 3, length=2 + i, deadline=9 + i, weight=1 + i)
            for i in range(6)
        ]
        policy = ASETS(weighted=weighted)
        policy.bind(pool, None)
        view = policy.workflow_set
        view._workflows[2]._refresh()
        policy.on_ready(pool[4], 0.0)

        def aggregates(wf):
            values = [getattr(wf, slot) for slot in AGGREGATE_SLOTS]
            values[AGGREGATE_SLOTS.index("head_txn")] = getattr(
                wf.head_txn, "txn_id", None
            )
            return wf.wf_id, wf.root_id, values

        copy = pickle.loads(pickle.dumps(policy))
        assert list(map(aggregates, copy.workflow_set)) == list(
            map(aggregates, view)
        )
        assert list(copy.workflow_set.transactions) == list(view.transactions)
        ((wf_id, wf),) = copy._dirty.items()
        assert wf.root_id == 4 and wf is copy.workflow_set._workflows[wf_id]


class TestCheckpointer:
    def test_max_saves_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="max_saves"):
            Checkpointer(tmp_path / "x.ckpt", max_saves=0)

    def test_max_saves_caps_snapshots(self, tmp_path):
        workload = generate_workloads(
            WorkloadSpec(n_transactions=120, utilization=0.9), [3]
        )[0]
        capped = Checkpointer(tmp_path / "run.ckpt", max_saves=1)
        run_policy_on(
            workload,
            PolicySpec.of("edf"),
            checkpoint_every=20,
            checkpointer=capped,
        )
        assert capped.saves == 1
        # An uncapped run takes several snapshots at the same cadence.
        free = Checkpointer(tmp_path / "free.ckpt")
        run_policy_on(
            workload,
            PolicySpec.of("edf"),
            checkpoint_every=20,
            checkpointer=free,
        )
        assert free.saves > 1


class TestRestoreWriter:
    def test_none_passes_through(self):
        assert restore_writer(None) is None

    def test_unknown_writer_tag(self):
        with pytest.raises(CheckpointError, match="unknown checkpointed"):
            restore_writer({"writer": "mystery"})
