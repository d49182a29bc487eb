"""CLI robustness and the fault-injection surface of the experiments CLI.

Covers the did-you-mean suggestions (unknown target / policy / fault
field exit with code 2 and a hint), the ``--faults`` plumbing on the
``run`` target, and the ``chaos`` sweep target.
"""

import json

import pytest

from repro.experiments.cli import main


def _exit_code(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code, capsys.readouterr().err


class TestDidYouMean:
    def test_misspelled_target_suggests_and_exits_2(self, capsys):
        code, err = _exit_code(["figg8"], capsys)
        assert code == 2
        assert "did you mean" in err
        assert "fig8" in err

    def test_hopeless_target_still_lists_choices(self, capsys):
        code, err = _exit_code(["zzzzzz"], capsys)
        assert code == 2
        assert "choose from" in err

    def test_misspelled_policy_suggests_and_exits_2(self, capsys):
        code, err = _exit_code(["run", "--policy", "asetz"], capsys)
        assert code == 2
        assert "did you mean" in err
        assert "asets" in err

    def test_bad_fault_spec_exits_2(self, capsys):
        code, err = _exit_code(
            ["run", "--faults", "abort_probability=0.1"], capsys
        )
        assert code == 2
        assert "bad --faults spec" in err


class TestRunWithFaults:
    def test_summary_line_reports_fault_counters(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--n",
                    "40",
                    "--policy",
                    "edf",
                    "--faults",
                    "seed=1,abort_prob=0.3,max_retries=1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "aborted=" in out
        assert "retries=" in out

    def test_faultless_run_keeps_plain_summary(self, capsys):
        assert main(["run", "--n", "40", "--policy", "edf"]) == 0
        assert "aborted=" not in capsys.readouterr().out

    def test_faulted_events_log_contains_fault_kinds(self, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "run",
                    "--n",
                    "60",
                    "--faults",
                    "seed=1,abort_prob=0.4,max_retries=1",
                    "--events-out",
                    str(target),
                ]
            )
            == 0
        )
        kinds = {
            json.loads(line)["kind"]
            for line in target.read_text().splitlines()
        }
        assert "fault.abort" in kinds


class TestChaosTarget:
    def test_chaos_runs_with_default_spec(self, capsys):
        assert main(["chaos", "--n", "40", "--seeds", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "ASETS*" in out

    def test_chaos_honours_explicit_spec(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--n",
                    "40",
                    "--seeds",
                    "1",
                    "--quiet",
                    "--faults",
                    "seed=9,abort_prob=0.2",
                ]
            )
            == 0
        )
        assert "abort_prob=0.2" in capsys.readouterr().out

    def test_chaos_parallel_with_cell_timeout(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--n",
                    "40",
                    "--seeds",
                    "1",
                    "--quiet",
                    "--jobs",
                    "2",
                    "--cell-timeout",
                    "300",
                ]
            )
            == 0
        )
        assert "Chaos sweep" in capsys.readouterr().out

    def test_failing_cell_is_reported_not_raised(self, monkeypatch, capsys):
        # The default --jobs 1 captures a raising cell like the pool
        # does: the sweep finishes, the report goes to stderr, exit 1.
        from repro.policies.edf import EDF

        def broken_select(self, *args, **kwargs):
            raise RuntimeError("select exploded")

        monkeypatch.setattr(EDF, "select", broken_select)
        assert main(["chaos", "--n", "30", "--seeds", "1"]) == 1
        captured = capsys.readouterr()
        assert "Chaos sweep" in captured.out
        assert "10 sweep cell(s) failed" in captured.err
        assert "x=0.1 seed=11 policy=EDF: RuntimeError('select exploded')" in (
            captured.err
        )
        assert "Traceback" in captured.err
