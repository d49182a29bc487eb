"""The no-progress watchdog of run_cell_groups (--cell-timeout).

The hang is injected by monkeypatching ``runner.generate`` with a
sleeping replacement: worker processes are forked after the patch, so
they inherit it.  Skipped where the pool cannot fork (spawn platforms
re-import the unpatched module).
"""

import multiprocessing
import time

import pytest

from repro.experiments import runner
from repro.experiments.config import PolicySpec
from repro.experiments.parallel import run_cell_groups
from repro.experiments.runner import CellGroup, _run_group
from repro.workload.generator import generate as real_generate
from repro.workload.spec import WorkloadSpec

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hang injection needs fork-inherited monkeypatching",
)

SPEC = WorkloadSpec(n_transactions=30, utilization=0.8)
POLICIES = (PolicySpec.of("edf", "EDF"), PolicySpec.of("srpt", "SRPT"))
HANG_SEED = 99


def group(seed, index=0):
    return CellGroup(
        column=index,
        x=0.8,
        spec=SPEC,
        policies=POLICIES,
        cells=tuple((pos, seed) for pos in range(len(POLICIES))),
        metric="average_tardiness",
    )


def hang_on_marker_seed(spec, seed):
    if seed == HANG_SEED:
        time.sleep(300)
    return real_generate(spec, seed)


class TestWatchdog:
    def test_hung_worker_becomes_timeout_failures(self, monkeypatch):
        monkeypatch.setattr(runner, "generate", hang_on_marker_seed)
        results, failures = run_cell_groups(
            _run_group, [group(HANG_SEED)], jobs=1, timeout=0.5
        )
        assert results == {}
        assert len(failures) == len(POLICIES)
        for failure in failures:
            assert failure.seed == HANG_SEED
            assert "TimeoutError" in failure.error
            assert "timed out" in failure.traceback

    def test_finished_groups_survive_a_later_hang(self, monkeypatch):
        monkeypatch.setattr(runner, "generate", hang_on_marker_seed)
        groups = [group(11, index=0), group(HANG_SEED, index=1)]
        results, failures = run_cell_groups(
            _run_group, groups, jobs=2, timeout=2.0
        )
        # The healthy group's cells all landed...
        assert set(results) == {(0, 11, 0), (0, 11, 1)}
        # ...and only the hung group turned into timeout failures.
        assert {f.seed for f in failures} == {HANG_SEED}

    def test_timeout_forces_pool_path_even_with_one_job(self, monkeypatch):
        # Inline execution could never interrupt the hang; a finishing
        # run under jobs=1 + timeout proves the pool path was taken.
        monkeypatch.setattr(runner, "generate", hang_on_marker_seed)
        started = time.monotonic()
        _, failures = run_cell_groups(
            _run_group, [group(HANG_SEED)], jobs=1, timeout=0.5
        )
        assert time.monotonic() - started < 30.0
        assert failures


class TestNoTimeout:
    def test_none_timeout_keeps_inline_path(self, monkeypatch):
        # Inline execution never forks: a patched generate that records
        # the calling pid proves it ran in this process.
        import os

        calls = []

        def tracking(spec, seed):
            calls.append(os.getpid())
            return real_generate(spec, seed)

        monkeypatch.setattr(runner, "generate", tracking)
        results, failures = run_cell_groups(
            _run_group, [group(11)], jobs=1, timeout=None
        )
        assert failures == []
        assert calls == [os.getpid()]
        assert len(results) == len(POLICIES)
