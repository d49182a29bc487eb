"""Graceful interruption of run_cell_groups (Ctrl-C / SIGTERM).

The interrupt is injected by monkeypatching ``runner.generate`` with
a replacement that raises ``KeyboardInterrupt`` on a marker seed.  On
the inline path it fires in-process; on the pool path the workers are
forked after the patch, so they inherit it and the interrupt travels
back through ``future.result()``.  Skipped where the pool cannot fork.
"""

import multiprocessing
import time

import pytest

from repro.ckpt.sweep import SweepManifest
from repro.errors import SweepInterrupted
from repro.experiments import runner
from repro.experiments.config import PolicySpec
from repro.experiments.parallel import run_cell_groups
from repro.experiments.runner import CellGroup, _run_group
from repro.workload.generator import generate as real_generate
from repro.workload.spec import WorkloadSpec

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="interrupt injection needs fork-inherited monkeypatching",
)

SPEC = WorkloadSpec(n_transactions=30, utilization=0.8)
POLICIES = (PolicySpec.of("edf", "EDF"), PolicySpec.of("srpt", "SRPT"))
INTERRUPT_SEED = 99


def group(seed, index=0):
    return CellGroup(
        column=index,
        x=0.8,
        spec=SPEC,
        policies=POLICIES,
        cells=tuple((pos, seed) for pos in range(len(POLICIES))),
        metric="average_tardiness",
    )


def interrupt_on_marker_seed(spec, seed):
    if seed == INTERRUPT_SEED:
        # Let earlier futures land in an earlier wait() batch: done-set
        # iteration order is arbitrary, so an instant raise could be
        # processed before a healthy result completed at the same time.
        time.sleep(0.5)
        raise KeyboardInterrupt
    return real_generate(spec, seed)


class TestInlineInterrupt:
    def test_counts_and_stderr_report(self, monkeypatch, capsys):
        monkeypatch.setattr(runner, "generate", interrupt_on_marker_seed)
        groups = [
            group(11, index=0),
            group(INTERRUPT_SEED, index=1),
            group(12, index=2),
        ]
        with pytest.raises(SweepInterrupted) as info:
            run_cell_groups(_run_group, groups, jobs=1)
        # the first group's two cells merged before the interrupt landed
        assert info.value.completed == 2
        assert info.value.failed == 0
        assert info.value.pending == 4
        err = capsys.readouterr().err
        assert "sweep interrupted: 2 cell(s) completed, 0 failed, 4 pending" in err

    def test_completed_cells_persist_in_manifest(self, monkeypatch, tmp_path):
        monkeypatch.setattr(runner, "generate", interrupt_on_marker_seed)
        path = tmp_path / "sweep.manifest"
        manifest = SweepManifest.open(path, "f" * 64)
        groups = [group(11, index=0), group(INTERRUPT_SEED, index=1)]
        with pytest.raises(SweepInterrupted):
            run_cell_groups(_run_group, groups, jobs=1, manifest=manifest)
        manifest.close()
        survived = SweepManifest.open(path, "f" * 64).completed
        assert set(survived) == {(0, 11, 0), (0, 11, 1)}
        # and the values are the real cell results, reusable on resume
        expected, _ = run_cell_groups(
            _run_group, [group(11, index=0)], jobs=1
        )
        assert survived == expected


class TestPooledInterrupt:
    def test_interrupt_raises_and_reaps_workers(self, monkeypatch):
        monkeypatch.setattr(runner, "generate", interrupt_on_marker_seed)
        groups = [group(INTERRUPT_SEED, index=i) for i in range(3)]
        started = time.monotonic()
        with pytest.raises(SweepInterrupted):
            run_cell_groups(_run_group, groups, jobs=2, timeout=60.0)
        # graceful shutdown must not wait out the watchdog window
        assert time.monotonic() - started < 30.0
        # the terminated workers wind down instead of being orphaned
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            if time.monotonic() > deadline:  # pragma: no cover - failure path
                pytest.fail("pool workers were orphaned after interrupt")
            time.sleep(0.05)

    def test_earlier_results_survive_pooled_interrupt(self, monkeypatch):
        monkeypatch.setattr(runner, "generate", interrupt_on_marker_seed)
        # one healthy group, then interrupts: with a single worker the
        # healthy group finishes (and merges) before the marker fires
        groups = [group(11, index=0), group(INTERRUPT_SEED, index=1)]
        with pytest.raises(SweepInterrupted) as info:
            run_cell_groups(_run_group, groups, jobs=1, timeout=60.0)
        assert info.value.completed == 2
        assert info.value.pending == 2
