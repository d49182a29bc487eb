"""Size-based event-log rotation: parts, manifest, transparent reads."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.jsonl import JsonlWriter, RotatingJsonlWriter, read_tolerant


def _records(n):
    yield {"schema": 1, "kind": "run_start", "t": 0.0, "policy": "edf", "n": n, "servers": 1}
    for i in range(n):
        yield {"kind": "completion", "t": float(i), "txn": i, "tardiness": 0.0}
    yield {"kind": "run_end", "t": float(n)}


class TestRotatingJsonlWriter:
    def test_rejects_bad_max_bytes(self, tmp_path):
        with pytest.raises(ObservabilityError):
            RotatingJsonlWriter(tmp_path / "events.jsonl", max_bytes=0)

    def test_rotates_into_numbered_parts_with_manifest(self, tmp_path):
        base = tmp_path / "events.jsonl"
        with RotatingJsonlWriter(base, max_bytes=256) as writer:
            for record in _records(40):
                writer.write(record)
        parts = sorted(p.name for p in tmp_path.glob("events-*.jsonl"))
        assert len(parts) > 1
        assert parts[0] == "events-0001.jsonl"
        manifest = json.loads(
            (tmp_path / "events.manifest.json").read_text()
        )
        assert manifest["kind"] == "manifest"
        assert manifest["schema"] == 1
        assert manifest["parts"] == parts
        assert manifest["records"] == 42
        assert manifest["max_bytes"] == 256

    def test_records_never_straddle_parts(self, tmp_path):
        base = tmp_path / "events.jsonl"
        with RotatingJsonlWriter(base, max_bytes=64) as writer:
            for record in _records(25):
                writer.write(record)
        for part in tmp_path.glob("events-*.jsonl"):
            for line in part.read_text().splitlines():
                json.loads(line)  # every line parses on its own

    def test_part_byte_cursor_matches_disk_with_non_ascii(self, tmp_path):
        # Rotation counts a line's bytes as its length, which holds only
        # because the encoder escapes to ASCII; a non-ASCII reason pins it.
        base = tmp_path / "events.jsonl"
        records = list(_records(30))
        records.insert(
            5, {"kind": "shed", "t": 4.5, "txn": 99, "reason": "Überlast ✓"}
        )
        with RotatingJsonlWriter(base, max_bytes=128) as writer:
            for record in records:
                writer.write(record)
                assert writer._part_bytes == writer.parts[-1].stat().st_size
            assert len(writer.parts) > 2
        texts = [part.read_bytes() for part in writer.parts]
        assert all(text.isascii() for text in texts)
        read_back = [json.loads(line) for text in texts for line in text.splitlines()]
        assert read_back == records

    def test_single_part_when_under_limit(self, tmp_path):
        base = tmp_path / "events.jsonl"
        with RotatingJsonlWriter(base, max_bytes=10_000_000) as writer:
            for record in _records(5):
                writer.write(record)
        assert [p.name for p in sorted(tmp_path.glob("events-*.jsonl"))] == [
            "events-0001.jsonl"
        ]


class TestReadingRotatedSets:
    @pytest.fixture()
    def rotated(self, tmp_path):
        base = tmp_path / "events.jsonl"
        with RotatingJsonlWriter(base, max_bytes=256) as writer:
            for record in _records(40):
                writer.write(record)
        return base

    def test_read_via_base_path(self, rotated):
        records, truncated = read_tolerant(rotated)
        assert truncated == 0
        assert records[0]["kind"] == "run_start"
        assert records[-1]["kind"] == "run_end"
        assert len(records) == 42

    def test_read_via_manifest_path(self, rotated):
        manifest = rotated.parent / "events.manifest.json"
        records, _ = read_tolerant(manifest)
        assert len(records) == 42

    def test_plain_file_still_reads(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        with JsonlWriter(path) as writer:
            for record in _records(5):
                writer.write(record)
        records, _ = read_tolerant(path)
        assert len(records) == 7

    def test_torn_tail_tolerated_only_on_last_part(self, rotated):
        parts = sorted(rotated.parent.glob("events-*.jsonl"))
        last = parts[-1]
        last.write_text(last.read_text() + '{"kind": "compl')
        with pytest.warns(UserWarning):
            records, truncated = read_tolerant(rotated)
        assert truncated == 1
        assert len(records) == 42

    def test_torn_middle_part_is_corruption(self, rotated):
        parts = sorted(rotated.parent.glob("events-*.jsonl"))
        first = parts[0]
        first.write_text(first.read_text() + '{"kind": "compl')
        with pytest.raises(ObservabilityError):
            read_tolerant(rotated)
