"""Tests for workload persistence."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import WorkloadError
from repro.policies import ASETSStar, EDF
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.io import load_workload, save_workload, workload_to_dict
from repro.workload.spec import WorkloadSpec

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def workload():
    spec = WorkloadSpec(
        n_transactions=40,
        utilization=0.8,
        weighted=True,
        with_workflows=True,
        length_estimate_error=0.3,
    )
    return generate(spec, seed=17)


class TestRoundTrip:
    def test_transactions_identical(self, workload, tmp_path):
        path = save_workload(workload, tmp_path / "w.json")
        loaded = load_workload(path)
        assert loaded.n == workload.n
        for a, b in zip(workload.transactions, loaded.transactions):
            assert a.txn_id == b.txn_id
            assert a.arrival == b.arrival
            assert a.length == b.length
            assert a.deadline == b.deadline
            assert a.weight == b.weight
            assert a.depends_on == b.depends_on
            assert a.length_estimate == b.length_estimate

    def test_spec_and_provenance_preserved(self, workload, tmp_path):
        loaded = load_workload(save_workload(workload, tmp_path / "w.json"))
        assert loaded.spec == workload.spec
        assert loaded.seed == workload.seed
        assert loaded.mean_length == workload.mean_length

    def test_simulation_identical_after_round_trip(self, workload, tmp_path):
        loaded = load_workload(save_workload(workload, tmp_path / "w.json"))
        original = Simulator(
            workload.transactions, ASETSStar(), workflow_set=workload.workflow_set
        ).run()
        replayed = Simulator(
            loaded.transactions, ASETSStar(), workflow_set=loaded.workflow_set
        ).run()
        assert [r.finish for r in original.records] == [
            r.finish for r in replayed.records
        ]

    def test_independent_workload_has_no_workflow_set(self, tmp_path):
        w = generate(WorkloadSpec(n_transactions=10), seed=1)
        loaded = load_workload(save_workload(w, tmp_path / "w.json"))
        assert loaded.workflow_set is None

    def test_workload_saved_mid_run_loads_fresh(self, workload, tmp_path):
        # Saving is state-independent: run first, save, reload, re-run.
        Simulator(workload.transactions, EDF()).run()
        loaded = load_workload(save_workload(workload, tmp_path / "w.json"))
        assert all(t.remaining == t.length for t in loaded.transactions)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            load_workload(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(WorkloadError):
            load_workload(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(WorkloadError, match="not a repro-workload"):
            load_workload(path)

    def test_missing_keys(self, tmp_path, workload):
        payload = workload_to_dict(workload)
        del payload["transactions"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(WorkloadError, match="missing key"):
            load_workload(path)

    def test_bad_spec_keys(self, tmp_path, workload):
        payload = workload_to_dict(workload)
        payload["spec"]["bogus_field"] = 1
        path = tmp_path / "badspec.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(WorkloadError, match="bad spec"):
            load_workload(path)


def _corrupt(payload, how):
    """``payload`` broken one way: each used to escape ``load_workload``
    as a bare KeyError, TypeError or AttributeError, or to load without
    complaint (a repeated id, a non-numeric mean length, a list seed)."""
    records = payload["transactions"]
    if how == "record-missing-arrival":
        del records[0]["arrival"]
    elif how == "record-is-a-list":
        records[0] = list(records[0].values())
    elif how == "transactions-null":
        payload["transactions"] = None
    elif how == "string-length":
        records[0]["length"] = "3.5"
    elif how == "top-level-list":
        return [payload]
    elif how == "repeated-id":
        records[1]["id"] = records[0]["id"]
    elif how == "string-mean-length":
        payload["mean_length"] = "8.3"
    elif how == "list-seed":
        payload["seed"] = [3]
    return payload


@pytest.fixture(
    params=(
        "record-missing-arrival",
        "record-is-a-list",
        "transactions-null",
        "string-length",
        "top-level-list",
        "repeated-id",
        "string-mean-length",
        "list-seed",
    )
)
def corrupt_file(request, tmp_path):
    w = generate(WorkloadSpec(n_transactions=20), seed=3)
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps(_corrupt(workload_to_dict(w), request.param)))
    return path


class TestCorruptRecords:
    def test_raises_workload_error(self, corrupt_file):
        with pytest.raises(WorkloadError):
            load_workload(corrupt_file)

    def test_stats_cli_exits_nonzero_without_traceback(self, corrupt_file):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.workload", "stats", str(corrupt_file)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            check=False,
            timeout=60,
        )
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        assert "error:" in completed.stderr
