"""CLI tests for the ``profile`` target and ``run --profile-out``."""

import json

import pytest

from repro.experiments.cli import main
from repro.obs.profile import validate_speedscope


class TestProfileTarget:
    def test_prints_phase_report(self, capsys):
        assert main(["profile", "--policy", "asets-star", "--n", "150"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("profile — asets-star")
        assert "select attribution:" in out
        assert "select cost by ready-queue depth" in out
        assert "avg_tardiness=" in out

    def test_profile_out_writes_snapshot_json(self, tmp_path, capsys):
        out_file = tmp_path / "prof.json"
        argv = ["profile", "--n", "150", "--profile-out", str(out_file)]
        assert main(argv) == 0
        payload = json.loads(out_file.read_text())
        assert payload["policy"] == "asets"
        assert "select" in payload["phases"]
        assert 0.0 <= payload["select_attributed_fraction"] <= 1.0
        assert "written to" in capsys.readouterr().err

    def test_flame_out_speedscope_validates(self, tmp_path, capsys):
        flame = tmp_path / "flame.speedscope.json"
        argv = ["profile", "--n", "150", "--flame-out", str(flame)]
        assert main(argv) == 0
        assert "ok" in validate_speedscope(json.loads(flame.read_text()))

    def test_flame_out_collapsed_format(self, tmp_path, capsys):
        flame = tmp_path / "flame.folded"
        argv = [
            "profile",
            "--n",
            "150",
            "--flame-out",
            str(flame),
            "--flame-format",
            "collapsed",
        ]
        assert main(argv) == 0
        lines = flame.read_text().strip().splitlines()
        assert lines and all(
            line.startswith("engine") and int(line.rsplit(" ", 1)[1]) >= 1
            for line in lines
        )

    def test_runs_under_a_fault_plan(self, capsys):
        argv = [
            "profile",
            "--n",
            "150",
            "--faults",
            "seed=3,abort_prob=0.2,crash_count=1",
        ]
        assert main(argv) == 0
        assert "faults" in capsys.readouterr().out  # fault phase observed


class TestValidation:
    def test_unknown_flame_format_gets_did_you_mean(self, capsys):
        argv = ["profile", "--flame-format", "speedscop"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "did you mean: speedscope" in capsys.readouterr().err

    def test_unknown_policy_gets_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--policy", "asets-sta"])
        assert exc.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_flame_out_rejected_outside_profile_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--flame-out", "x.json"])
        assert exc.value.code == 2
        assert "profile" in capsys.readouterr().err

    def test_profile_out_rejected_on_figure_targets(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig8", "--profile-out", "x.json"])
        assert exc.value.code == 2

    def test_profile_out_rejected_with_streaming(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--streaming", "--profile-out", "x.json"])
        assert exc.value.code == 2
        assert "--streaming" in capsys.readouterr().err


class TestRunProfileOut:
    def test_run_writes_snapshot_and_stays_instrumented(
        self, tmp_path, capsys
    ):
        out_file = tmp_path / "run_prof.json"
        argv = [
            "run",
            "--policy",
            "asets",
            "--n",
            "120",
            "--profile-out",
            str(out_file),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        # Normal run summary still prints; profile rides along.
        assert "avg_tardiness=" in captured.out
        payload = json.loads(out_file.read_text())
        assert payload["policy"] == "asets"
        assert payload["phases"]["select"]["count"] > 0


class TestScanSelect:
    def test_default_profile_uses_incremental_probe(self, capsys):
        argv = ["profile", "--policy", "asets-star", "--n", "150"]
        assert main(argv) == 0
        assert "incremental" in capsys.readouterr().out
