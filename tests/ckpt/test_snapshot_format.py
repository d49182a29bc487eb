"""The checkpoint file format: header, validation, atomicity, caps."""

import json
import pickle
from array import array

import pytest

from repro.ckpt import (
    CKPT_MAGIC,
    CKPT_VERSION,
    Checkpointer,
    load_checkpoint,
    restore_writer,
)
from repro.errors import CheckpointError
from repro.experiments.config import PolicySpec
from repro.experiments.runner import generate_workloads, run_policy_on
from repro.obs import NullInstrument, Recorder, RunTelemetry, StreamingRecorder
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
        blob = pickle.loads(data[end + 1 :])
        queue = blob["core"]["_events"]
        queue._heap = [(tuple(event[:3]), event) for event in queue._heap]
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
        blob = pickle.loads(data[end + 1 :])
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
        blob = pickle.loads(data[end + 1 :])
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
        blob = pickle.loads(data[end + 1 :])
        policy = blob["policy_state"]
        for name in ("_serial", "_side", "_hdf", "_alarm", "_singleton_of"):
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
        blob = pickle.loads(data[end + 1 :])
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
        blob = pickle.loads(data[end + 1 :])
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
        end = data.index(b"\n", len(CKPT_MAGIC))
        checkpoint_path.write_bytes(
            data[: end + 1] + pickle.dumps({"core": {}})
        )
        with pytest.raises(CheckpointError, match="payload fields"):
            load_checkpoint(checkpoint_path)

    def test_core_schema_skew(self, checkpoint_path):
        data = checkpoint_path.read_bytes()
        end = data.index(b"\n", len(CKPT_MAGIC))
        blob = pickle.loads(data[end + 1 :])
        blob["core"].pop("_events")
        checkpoint_path.write_bytes(data[: end + 1] + pickle.dumps(blob))
        with pytest.raises(CheckpointError, match="version skew"):
            load_checkpoint(checkpoint_path)


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
