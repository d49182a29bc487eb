"""Unit tests for the sweep executor (repro.experiments.parallel), the
cell function and grid_sweep (repro.experiments.runner)."""

import math

import pytest

from repro.errors import SweepError
from repro.experiments import runner
from repro.experiments.config import PolicySpec
from repro.experiments.parallel import resolve_jobs, run_cell_groups
from repro.experiments.runner import (
    CellGroup,
    SweepColumn,
    _run_group,
    grid_sweep,
)
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(n_transactions=40, utilization=0.8)
POLICIES = (PolicySpec.of("edf", "EDF"), PolicySpec.of("srpt", "SRPT"))
#: A policy whose cell fails inside the worker: the registry rejects the
#: bogus constructor kwarg only when ``make()`` runs.
BOOM = PolicySpec.of("edf", "BOOM", bogus_kwarg=1)


def group(index=0, seed=11, policies=POLICIES, spec=SPEC):
    return CellGroup(
        column=index,
        x=0.8,
        spec=spec,
        policies=tuple(policies),
        cells=tuple((pos, seed) for pos in range(len(policies))),
        metric="average_tardiness",
    )


class TestResolveJobs:
    def test_explicit_counts_taken_literally(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_or_negative_means_per_core(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-3) == resolve_jobs(0)


class TestRunGroup:
    def test_success_produces_one_value_per_policy(self):
        result = _run_group(group())
        assert len(result.values) == len(POLICIES)
        assert all(v is not None for v in result.values)
        assert result.failures == (None, None)

    def test_policy_failure_is_captured_not_raised(self):
        result = _run_group(group(policies=POLICIES + (BOOM,)))
        assert result.values[:2] != (None, None)
        assert result.values[2] is None
        failure = result.failures[2]
        assert failure.policy == "BOOM"
        assert failure.seed == 11
        assert "bogus_kwarg" in failure.traceback

    def test_generation_failure_fails_every_cell(self, monkeypatch):
        def explode(spec, seed):
            raise RuntimeError("generator down")

        monkeypatch.setattr(runner, "generate", explode)
        result = _run_group(group())
        assert result.values == (None, None)
        assert all(f is not None for f in result.failures)
        assert all("generator down" in f.traceback for f in result.failures)

    def test_generation_failure_fails_only_its_seed(self, monkeypatch):
        real_generate = runner.generate

        def explode_on_23(spec, seed):
            if seed == 23:
                raise RuntimeError("generator down")
            return real_generate(spec, seed)

        monkeypatch.setattr(runner, "generate", explode_on_23)
        cells = ((0, 11), (0, 23))
        result = _run_group(
            CellGroup(0, 0.8, SPEC, POLICIES, cells, "average_tardiness")
        )
        assert result.values[0] is not None and result.failures[0] is None
        assert result.values[1] is None
        assert result.failures[1].seed == 23


class TestRunCellGroups:
    def test_results_keyed_by_grid_coordinates(self):
        groups = [group(index=i, seed=s) for i in (0, 1) for s in (11, 23)]
        results, failures = run_cell_groups(_run_group, groups, jobs=1)
        assert failures == []
        assert set(results) == {
            (i, s, p) for i in (0, 1) for s in (11, 23) for p in (0, 1)
        }

    def test_pool_matches_inline_exactly(self):
        groups = [group(index=i, seed=s) for i in (0, 1) for s in (11, 23)]
        inline, _ = run_cell_groups(_run_group, groups, jobs=1)
        pooled, _ = run_cell_groups(_run_group, groups, jobs=3)
        assert repr(sorted(inline.items())) == repr(sorted(pooled.items()))

    def test_failures_sorted_by_coordinates(self):
        groups = [
            group(index=i, seed=s, policies=(BOOM,))
            for i in (1, 0)
            for s in (23, 11)
        ]
        _, failures = run_cell_groups(_run_group, groups, jobs=2)
        assert [(f.x, f.seed) for f in failures] == sorted(
            (f.x, f.seed) for f in failures
        )

    def test_finished_called_once_per_column_policy(self):
        groups = [group(index=i, seed=s) for i in (0, 1) for s in (11, 23)]
        seq_calls, par_calls = [], []

        def recorder(calls):
            def finished(index, pos, results):
                # every seed of the pair has landed by now
                seeds = sorted(s for i, s, p in results if (i, p) == (index, pos))
                calls.append((index, pos, seeds))

            return finished

        run_cell_groups(_run_group, groups, jobs=1, finished=recorder(seq_calls))
        run_cell_groups(_run_group, groups, jobs=2, finished=recorder(par_calls))
        assert seq_calls == [
            (i, p, [11, 23]) for i in (0, 1) for p in range(len(POLICIES))
        ]
        # Completion order may differ under the pool; the call *set* not.
        assert sorted(par_calls) == seq_calls


class TestGridSweep:
    def columns(self):
        return [
            SweepColumn(
                x=u, spec=WorkloadSpec(n_transactions=40, utilization=u)
            )
            for u in (0.4, 0.9)
        ]

    def test_series_shape_and_labels(self):
        series = grid_sweep(
            self.columns(),
            POLICIES,
            "average_tardiness",
            (11, 23),
            x_label="utilization",
        )
        assert series.x == [0.4, 0.9]
        assert list(series.series) == ["EDF", "SRPT"]

    def test_all_failed_column_reports_nan(self):
        failures = []
        series = grid_sweep(
            self.columns(),
            POLICIES + (BOOM,),
            "average_tardiness",
            (11, 23),
            x_label="utilization",
            jobs=2,
            failures=failures,
        )
        assert all(math.isnan(v) for v in series.get("BOOM"))
        assert not any(math.isnan(v) for v in series.get("EDF"))
        assert len(failures) == 4  # 2 columns x 2 seeds

    def test_raises_sweep_error_without_capture(self):
        with pytest.raises(SweepError) as exc:
            grid_sweep(
                self.columns(),
                (BOOM,),
                "average_tardiness",
                (11,),
                x_label="utilization",
            )
        assert len(exc.value.failures) == 2
        assert "BOOM" in str(exc.value)

    def test_in_process_grid_runs_column_policy_seed(self, monkeypatch):
        # Callers that capture cells through runner.run_policy_on read
        # them back column by column, policy by policy, seed by seed.
        generated, ran = [], []
        real_generate, real_run = runner.generate, runner.run_policy_on

        def counting_generate(spec, seed):
            generated.append((spec.utilization, seed))
            return real_generate(spec, seed)

        def tracing_run(workload, policy, **kwargs):
            ran.append((workload.spec.utilization, policy.display, workload.seed))
            return real_run(workload, policy, **kwargs)

        monkeypatch.setattr(runner, "generate", counting_generate)
        monkeypatch.setattr(runner, "run_policy_on", tracing_run)
        grid_sweep(
            self.columns(), POLICIES, "average_tardiness", (11, 23),
            x_label="utilization",
        )
        assert generated == [(u, s) for u in (0.4, 0.9) for s in (11, 23)]
        assert ran == [
            (u, p.display, s)
            for u in (0.4, 0.9)
            for p in POLICIES
            for s in (11, 23)
        ]

    def test_repeated_display_names_keep_every_policy(self):
        twins = (
            PolicySpec.of("edf", "EDF"),
            PolicySpec.of("balance-aware", "BA", time_rate=0.002),
            PolicySpec.of("balance-aware", "BA", time_rate=0.01),
        )
        series = grid_sweep(
            self.columns()[:1],
            twins,
            "average_tardiness",
            (11,),
            x_label="utilization",
        )
        assert list(series.series) == ["EDF", "BA", "BA #2"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_line_per_finished_column_and_policy(self, jobs):
        lines = []
        series = grid_sweep(
            self.columns(),
            POLICIES,
            "average_tardiness",
            (11, 23),
            x_label="utilization",
            jobs=jobs,
            progress=lines.append,
        )
        expected = [
            f"x={x:g} {name} average_tardiness={series.get(name)[i]:.3f}"
            for i, x in enumerate(series.x)
            for name in ("EDF", "SRPT")
        ]
        # the pool may finish columns in any order
        assert sorted(lines) == sorted(expected)
        if jobs == 1:
            assert lines == expected
