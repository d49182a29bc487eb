"""Sweep resume: the per-cell completion manifest and its guards."""

import json

import pytest

from repro.ckpt.sweep import SweepManifest, grid_fingerprint
from repro.errors import CheckpointError
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import SweepColumn, grid_sweep, utilization_sweep
from repro.workload.spec import WorkloadSpec

POLICIES = (PolicySpec.of("edf", "EDF"), PolicySpec.of("asets", "ASETS"))
CONFIG = ExperimentConfig(
    n_transactions=60, seeds=(1, 2), utilizations=(0.7, 0.9)
)
BASE = WorkloadSpec(n_transactions=60, utilization=0.8)


def _columns():
    return [
        SweepColumn(x=u, spec=WorkloadSpec(n_transactions=60, utilization=u))
        for u in CONFIG.utilizations
    ]


def _fingerprint():
    return grid_fingerprint(
        _columns(), POLICIES, "average_tardiness", CONFIG.seeds, None
    )


class TestGridFingerprint:
    def test_stable_for_identical_grids(self):
        assert _fingerprint() == _fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            lambda c, p, m, s: (c, p, "max_tardiness", s),
            lambda c, p, m, s: (c, p[:1], m, s),
            lambda c, p, m, s: (c, p, m, (1, 2, 3)),
            lambda c, p, m, s: (c[:1], p, m, s),
        ],
        ids=["metric", "policies", "seeds", "columns"],
    )
    def test_sensitive_to_every_dimension(self, change):
        columns, policies, metric, seeds = change(
            _columns(), POLICIES, "average_tardiness", CONFIG.seeds
        )
        assert (
            grid_fingerprint(columns, policies, metric, seeds, None)
            != _fingerprint()
        )


class TestManifestFile:
    def test_fresh_manifest_writes_header(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        with SweepManifest.open(path, "f" * 64) as manifest:
            assert manifest.completed == {}
            manifest.record(0, 1, 0, 1.5)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {
            "kind": "sweep-manifest",
            "version": 1,
            "fingerprint": "f" * 64,
        }
        assert lines[1] == {"i": 0, "s": 1, "p": 0, "v": 1.5}

    def test_reopen_reads_completed_cells(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        with SweepManifest.open(path, "f" * 64) as manifest:
            manifest.record(0, 1, 0, 1.5)
            manifest.record(1, 2, 1, -0.25)
        with SweepManifest.open(path, "f" * 64) as manifest:
            assert manifest.completed == {(0, 1, 0): 1.5, (1, 2, 1): -0.25}

    def test_values_round_trip_exactly(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        value = 0.1 + 0.2  # not representable prettily; must survive JSON
        with SweepManifest.open(path, "f" * 64) as manifest:
            manifest.record(0, 1, 0, value)
        with SweepManifest.open(path, "f" * 64) as manifest:
            assert manifest.completed[(0, 1, 0)] == value

    def test_torn_final_line_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        with SweepManifest.open(path, "f" * 64) as manifest:
            manifest.record(0, 1, 0, 1.0)
        with path.open("a") as handle:
            handle.write('{"i":0,"s"')
        with SweepManifest.open(path, "f" * 64) as manifest:
            assert manifest.completed == {(0, 1, 0): 1.0}
            manifest.record(0, 1, 1, 2.0)
        # the torn fragment must not have swallowed the new record
        for line in path.read_text().splitlines():
            json.loads(line)
        with SweepManifest.open(path, "f" * 64) as manifest:
            assert manifest.completed == {(0, 1, 0): 1.0, (0, 1, 1): 2.0}

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        with SweepManifest.open(path, "f" * 64) as manifest:
            manifest.record(0, 1, 0, 1.0)
        text = path.read_text().splitlines()
        text.insert(1, "{broken")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CheckpointError, match="corrupt sweep manifest"):
            SweepManifest.open(path, "f" * 64)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            SweepManifest.open(path, "f" * 64)

    def test_alien_header_raises(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        path.write_text('{"kind":"run_start","t":0.0}\n')
        with pytest.raises(CheckpointError, match="header"):
            SweepManifest.open(path, "f" * 64)

    def test_fingerprint_mismatch_mentions_resume(self, tmp_path):
        path = tmp_path / "sweep.manifest"
        SweepManifest.open(path, "f" * 64).close()
        with pytest.raises(CheckpointError, match="--resume"):
            SweepManifest.open(path, "0" * 64)

    def test_record_after_close_raises(self, tmp_path):
        manifest = SweepManifest.open(tmp_path / "sweep.manifest", "f" * 64)
        manifest.close()
        with pytest.raises(CheckpointError, match="closed"):
            manifest.record(0, 1, 0, 1.0)


class TestGridSweepResume:
    def test_fresh_manifest_matches_inline_sweep(self, tmp_path):
        fresh = utilization_sweep(BASE, POLICIES, "average_tardiness", CONFIG)
        resumed = utilization_sweep(
            BASE,
            POLICIES,
            "average_tardiness",
            CONFIG,
            resume=str(tmp_path / "sweep.manifest"),
        )
        assert resumed.x == fresh.x
        assert resumed.series == fresh.series

    def test_partial_manifest_completes_identically(self, tmp_path):
        manifest_path = tmp_path / "sweep.manifest"
        fresh = utilization_sweep(BASE, POLICIES, "average_tardiness", CONFIG)
        utilization_sweep(
            BASE, POLICIES, "average_tardiness", CONFIG,
            resume=str(manifest_path),
        )
        # keep the header and the first three completed cells only
        lines = manifest_path.read_text().splitlines(keepends=True)
        manifest_path.write_text("".join(lines[:4]))
        resumed = utilization_sweep(
            BASE, POLICIES, "average_tardiness", CONFIG,
            resume=str(manifest_path),
        )
        assert resumed.series == fresh.series
        # and the manifest now holds the full grid for the next resume
        completed = SweepManifest.open(
            manifest_path,
            grid_fingerprint(
                _columns(), POLICIES, "average_tardiness", CONFIG.seeds, None
            ),
        ).completed
        assert len(completed) == len(CONFIG.utilizations) * len(
            CONFIG.seeds
        ) * len(POLICIES)

    def test_fully_completed_manifest_runs_nothing(self, tmp_path, monkeypatch):
        manifest_path = tmp_path / "sweep.manifest"
        fresh = utilization_sweep(
            BASE, POLICIES, "average_tardiness", CONFIG,
            resume=str(manifest_path),
        )
        # a second resume must not execute a single cell
        from repro.experiments import runner

        def explode(*args, **kwargs):
            raise AssertionError("a completed sweep reran a cell")

        monkeypatch.setattr(runner, "_run_group", explode)
        resumed = utilization_sweep(
            BASE, POLICIES, "average_tardiness", CONFIG,
            resume=str(manifest_path),
        )
        assert resumed.series == fresh.series

    def test_resume_rejects_telemetry(self, tmp_path):
        from repro.experiments.runner import TelemetrySpec

        with pytest.raises(CheckpointError, match="telemetry"):
            grid_sweep(
                _columns(),
                POLICIES,
                "average_tardiness",
                CONFIG.seeds,
                x_label="utilization",
                telemetry=TelemetrySpec(),
                resume=str(tmp_path / "sweep.manifest"),
            )
