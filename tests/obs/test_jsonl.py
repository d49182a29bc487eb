"""Unit tests for the JSONL event-log writer and reader."""

import json
import math
from types import SimpleNamespace

import pytest

from repro.errors import ObservabilityError
from repro.obs import jsonl, records
from repro.obs.streaming import WindowAggregator
from repro.sim.results import StreamSummary


def header(**extra):
    record = {"schema": jsonl.SCHEMA_VERSION, "kind": "run_start", "t": 0.0}
    record.update(extra)
    return record


class TestWriter:
    def test_write_and_read_round_trip(self, tmp_path):
        records = [
            header(policy="edf", n=2, servers=1),
            {"kind": "arrival", "t": 0.5, "txn": 1},
            {"kind": "completion", "t": 1.5, "txn": 1, "tardiness": 0.0},
            {"kind": "run_end", "t": 1.5},
        ]
        path = jsonl.write(records, tmp_path / "run.jsonl")
        assert jsonl.read(path) == records

    def test_float_fidelity(self, tmp_path):
        records = [header(), {"kind": "sched", "t": 0.1 + 0.2, "ready": 0,
                              "running": 0, "select_s": 1e-7}]
        path = jsonl.write(records, tmp_path / "f.jsonl")
        assert jsonl.read(path) == records

    def test_streaming_writer_counts_and_closes(self, tmp_path):
        with jsonl.JsonlWriter(tmp_path / "s.jsonl") as out:
            out.write(header())
            out.write({"kind": "run_end", "t": 1.0})
            assert out.records_written == 2
        with pytest.raises(ObservabilityError):
            out.write({"kind": "late", "t": 2.0})

    def test_one_record_per_line(self, tmp_path):
        path = jsonl.write([header(), {"kind": "run_end", "t": 0.0}],
                           tmp_path / "l.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2


class TestReader:
    def test_rejects_missing_header(self, tmp_path):
        path = jsonl.write([{"kind": "arrival", "t": 0.0, "txn": 1}],
                           tmp_path / "bad.jsonl")
        with pytest.raises(ObservabilityError, match="run_start"):
            jsonl.read(path)

    def test_rejects_future_schema(self, tmp_path):
        path = jsonl.write([header(schema=jsonl.SCHEMA_VERSION + 1)],
                           tmp_path / "future.jsonl")
        with pytest.raises(ObservabilityError, match="schema"):
            jsonl.read(path)

    def test_rejects_invalid_schema_field(self, tmp_path):
        path = jsonl.write([header(schema="one")], tmp_path / "alien.jsonl")
        with pytest.raises(ObservabilityError):
            jsonl.read(path)

    def test_rejects_broken_json_with_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"schema": 1, "kind": "run_start", "t": 0}\n{oops\n')
        with pytest.raises(ObservabilityError, match=":2"):
            jsonl.read(path)

    def test_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ObservabilityError, match="object"):
            jsonl.read(path)

    def test_non_strict_skips_header_validation(self, tmp_path):
        path = jsonl.write([{"kind": "arrival", "t": 0.0, "txn": 1}],
                           tmp_path / "partial.jsonl")
        assert jsonl.read(path, strict=False) == [
            {"kind": "arrival", "t": 0.0, "txn": 1}
        ]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            '{"schema": 1, "kind": "run_start", "t": 0}\n\n{"kind": "run_end", "t": 1}\n'
        )
        assert len(jsonl.read(path)) == 2

    def test_iter_records_is_lazy(self, tmp_path):
        path = jsonl.write([header(), {"kind": "run_end", "t": 1.0}],
                           tmp_path / "i.jsonl")
        it = jsonl.iter_records(path)
        assert next(it)["kind"] == "run_start"
        assert next(it)["kind"] == "run_end"


class TestReadTolerant:
    def _log(self, tmp_path, tail=""):
        path = tmp_path / "crash.jsonl"
        path.write_text(
            '{"schema": 1, "kind": "run_start", "t": 0.0}\n'
            '{"kind": "arrival", "t": 0.5, "txn": 1}\n' + tail
        )
        return path

    def test_clean_log_reads_with_zero_truncation(self, tmp_path):
        records, truncated = jsonl.read_tolerant(self._log(tmp_path))
        assert truncated == 0
        assert [r["kind"] for r in records] == ["run_start", "arrival"]

    def test_truncated_trailing_line_dropped_with_warning(self, tmp_path):
        path = self._log(tmp_path, '{"kind": "completion", "t": 1.')
        with pytest.warns(UserWarning, match="truncated trailing line"):
            records, truncated = jsonl.read_tolerant(path)
        assert truncated == 1
        assert [r["kind"] for r in records] == ["run_start", "arrival"]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"schema": 1, "kind": "run_start", "t": 0.0}\n'
            "{oops\n"
            '{"kind": "run_end", "t": 1.0}\n'
        )
        with pytest.raises(ObservabilityError, match=":2"):
            jsonl.read_tolerant(path)

    def test_per_event_flush_survives_kill(self, tmp_path):
        # The writer makes one unbuffered write per record, so a reader
        # sees every record written so far even while the log is open.
        path = tmp_path / "live.jsonl"
        writer = jsonl.JsonlWriter(path)
        writer.write({"schema": jsonl.SCHEMA_VERSION, "kind": "run_start", "t": 0.0})
        writer.write({"kind": "arrival", "t": 0.5, "txn": 1})
        records, truncated = jsonl.read_tolerant(path)
        writer.close()
        assert truncated == 0
        assert len(records) == 2


#: Values the line encoder must write exactly as ``json.dumps`` does.
_AWKWARD = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-0.0": -0.0,
    "1e300": 1e300,
    "tiny": 5e-324,
    "big": 2**100,
    "text": "d\u00e9lai \u23f1 \"quoted\"\n",
}


def _txn(txn_id, arrival=0.0, deps=()):
    return SimpleNamespace(txn_id=txn_id, arrival=arrival, depends_on=deps)


def _summary(**extra):
    fields = dict.fromkeys(StreamSummary.__dataclass_fields__, 0)
    fields.update(extra)
    return StreamSummary(**fields)


def _oracle_records():
    """One record from every builder in :mod:`repro.obs.records` (each
    with awkward values), a window snapshot and a manifest."""
    v = _AWKWARD
    txn = _txn(v["big"], arrival=-0.0, deps=(1, v["big"]))
    built = [
        records.run_start_record(1, v["text"], v["big"], 2),
        records.arrival_record(txn, v["1e300"]),
        records.dispatch_record(txn, v["tiny"], v["nan"]),
        records.preempt_record(txn, v["-0.0"]),
        records.overhead_record(txn, v["inf"], 0.1 + 0.2),
        records.completion_record(_txn(3, arrival=1.0), v["inf"], v["nan"]),
        records.stall_record(txn, v["-inf"], 1.5),
        records.abort_record(txn, 2.0, v["1e300"], 3, True),
        records.retry_record(txn, 2.5, 4, v["inf"]),
        records.crash_record(v["nan"], 1),
        records.recover_record(3.0, 0),
        records.shed_record(txn, 3.5, v["text"]),
        records.sched_record(4.0, v["big"], 1, 3.4139957278966904e-06),
        records.run_end_record(
            v["1e300"], _summary(completed=v["big"], aborted=1, shed=2, retries=3)
        ),
    ]
    windows = WindowAggregator(10.0)
    windows.observe_arrival()
    windows.observe_point(1.0, 3, 1)
    windows.observe_completion(v["1e300"])
    (snapshot,) = windows.finish(7.0)
    built.append(dict(snapshot, tardiness=v["-inf"]))
    built.append(
        {
            "schema": 1,
            "kind": "manifest",
            "base": v["text"],
            "parts": ["events-0001.jsonl", v["text"]],
            "records": v["big"],
            "max_bytes": 7,
        }
    )
    return built


class TestLineEncoder:
    def test_every_builder_covered(self):
        kinds = {record["kind"] for record in _oracle_records()}
        assert len(records.__all__) == 14
        assert kinds == set(jsonl.EVENT_SCHEMAS)

    @pytest.mark.parametrize(
        "record", _oracle_records(), ids=lambda record: record["kind"]
    )
    def test_line_is_compact_json_dumps(self, record):
        expected = json.dumps(record, separators=(",", ":"))
        line = jsonl._encode(record)
        assert line == expected
        assert len(line) == len(line.encode("utf-8"))
        assert jsonl._line(record) == (expected + "\n").encode("ascii")

    def test_writers_write_the_same_bytes(self, tmp_path):
        built = _oracle_records()
        expected = "".join(
            json.dumps(record, separators=(",", ":")) + "\n" for record in built
        ).encode("ascii")
        with jsonl.JsonlWriter(tmp_path / "plain.jsonl") as out:
            for record in built:
                out.write(record)
        with jsonl.RotatingJsonlWriter(tmp_path / "rot.jsonl", max_bytes=200) as rot:
            for record in built:
                rot.write(record)
        assert (tmp_path / "plain.jsonl").read_bytes() == expected
        assert len(rot.parts) > 1
        assert b"".join(part.read_bytes() for part in rot.parts) == expected


class _Trickle:
    """An unbuffered file that takes at most 7 bytes per ``write``."""

    def __init__(self, raw):
        self.raw = raw
        self.calls = 0

    def write(self, data):
        self.calls += 1
        return self.raw.write(bytes(data[:7]))

    def close(self):
        self.raw.close()


class TestShortWrites:
    @pytest.fixture
    def trickles(self, monkeypatch):
        opened = []

        def open_trickle(path, mode):
            opened.append(_Trickle(path.open(mode, buffering=0)))
            return opened[-1]

        monkeypatch.setattr(jsonl, "_open", open_trickle)
        return opened

    def _records(self):
        return [header(policy="edf", n=40, servers=1)] + [
            {"kind": "arrival", "t": i / 3, "txn": i} for i in range(40)
        ]

    def _expected(self, built):
        return "".join(
            json.dumps(record, separators=(",", ":")) + "\n" for record in built
        ).encode()

    def test_plain_writer_finishes_every_line(self, tmp_path, trickles):
        built = self._records()
        with jsonl.JsonlWriter(tmp_path / "short.jsonl") as out:
            for record in built:
                out.write(record)
        assert (tmp_path / "short.jsonl").read_bytes() == self._expected(built)
        assert trickles[0].calls > 4 * len(built)
        records_read, torn = jsonl.read_tolerant(tmp_path / "short.jsonl")
        assert records_read == built and torn == 0

    def test_rotating_writer_finishes_every_line(self, tmp_path, trickles):
        built = self._records()
        with jsonl.RotatingJsonlWriter(tmp_path / "short.jsonl", max_bytes=300) as out:
            for record in built:
                out.write(record)
        assert len(trickles) == len(out.parts) > 1
        data = b"".join(part.read_bytes() for part in out.parts)
        assert data == self._expected(built)
        assert jsonl.read_tolerant(tmp_path / "short.jsonl") == (built, 0)
