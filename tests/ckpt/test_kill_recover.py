"""Kill-and-recover harness: real signals against the live CLI.

A CLI run with checkpointing on is SIGKILLed once its checkpoint file
appears, then resumed with ``run --resume``; a parallel sweep with a
resume manifest is SIGTERMed mid-flight, then rerun to completion.  In
both cases the recovered output must match an uninterrupted golden run
— modulo the wall-clock ``select_s`` field, exactly as the golden-log
determinism tests treat it.

The workload sizes are deliberately modest so the suite stays quick;
CI's resume-smoke job reruns this file with ``REPRO_RESUME_SMOKE_N``
raised to a 10^5-transaction run.  If a process finishes before the
signal lands (tiny machine-dependent race), the test degrades to the
checkpoint-on identity assertion rather than flaking.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.ckpt import load_checkpoint
from repro.obs.jsonl import read_tolerant

REPO = pathlib.Path(__file__).resolve().parents[2]
CLI = [sys.executable, "-m", "repro.experiments"]
RUN_N = int(os.environ.get("REPRO_RESUME_SMOKE_N", "20000"))
SWEEP_N = max(200, RUN_N // 10)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _cli(*args, timeout=300):
    return subprocess.run(
        CLI + list(args),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _norm_log(path):
    out = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        event.pop("select_s", None)
        out.append(event)
    return out


def _norm_stdout(text):
    return [line for line in text.splitlines() if "select" not in line]


def _wait_for(predicate, proc, timeout=120.0):
    """Poll until ``predicate()`` or the process exits; True if it held."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        if proc.poll() is not None:
            return False
        time.sleep(0.005)
    raise TimeoutError("neither the predicate nor process exit happened")


class TestKillAndResumeRun:
    def test_sigkilled_run_resumes_identically(self, tmp_path):
        run_args = [
            "run", "--policy", "asets", "--n", str(RUN_N), "--seed", "7",
            "--streaming", "--window", "50",
        ]
        golden_log = tmp_path / "golden.jsonl"
        golden = _cli(*run_args, "--events-out", str(golden_log))
        assert golden.returncode == 0, golden.stderr

        killed_log = tmp_path / "killed.jsonl"
        ckpt = tmp_path / "run.ckpt"
        proc = subprocess.Popen(
            CLI + run_args + [
                "--events-out", str(killed_log),
                "--checkpoint-every", "2000",
                "--checkpoint-out", str(ckpt),
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            landed = _wait_for(
                lambda: ckpt.exists() and ckpt.stat().st_size > 0, proc
            )
            if landed:
                proc.send_signal(signal.SIGKILL)
            stdout, _ = proc.communicate(timeout=300)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()

        if proc.returncode == 0:
            # Finished before the kill could land: still assert the
            # checkpoint-on run matched the golden one, then stop.
            assert _norm_log(killed_log) == _norm_log(golden_log)
            assert _norm_stdout(stdout) == _norm_stdout(golden.stdout)
            pytest.skip("run finished before SIGKILL landed")

        assert proc.returncode == -signal.SIGKILL
        # What the kill left: every record written before the save, and
        # at most the one line being written when the signal landed.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            killed, torn = read_tolerant(killed_log)
        assert torn <= 1
        assert len(killed) >= load_checkpoint(ckpt).writer_state["records"]
        resumed = _cli("run", "--resume", str(ckpt))
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stderr
        assert _norm_log(killed_log) == _norm_log(golden_log)
        assert _norm_stdout(resumed.stdout) == _norm_stdout(golden.stdout)


class TestInterruptAndResumeSweep:
    def test_sigtermed_sweep_resumes_byte_identically(self, tmp_path):
        base = [
            "fig9", "--n", str(SWEEP_N), "--seeds", "2", "--quiet",
        ]
        fresh_export = tmp_path / "fresh.json"
        fresh = _cli(*base, "--jobs", "1", "--export", str(fresh_export))
        assert fresh.returncode == 0, fresh.stderr

        manifest = tmp_path / "fig9.manifest"
        resumed_export = tmp_path / "resumed.json"
        resumable = base + [
            "--jobs", "2",
            "--resume", str(manifest),
            "--export", str(resumed_export),
        ]
        proc = subprocess.Popen(
            CLI + resumable,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            landed = _wait_for(
                lambda: manifest.exists()
                and manifest.read_bytes().count(b"\n") >= 2,
                proc,
            )
            if landed:
                proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=300)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()

        if proc.returncode != 0:
            # the graceful-interrupt contract: distinct exit code, counts
            # on stderr, completed cells persisted in the manifest
            assert proc.returncode == 3, stderr
            assert "sweep interrupted" in stderr
            assert "rerun the same command" in stderr
            assert manifest.read_bytes().count(b"\n") >= 2

        rerun = _cli(*resumable)
        assert rerun.returncode == 0, rerun.stderr
        assert resumed_export.read_bytes() == fresh_export.read_bytes()
