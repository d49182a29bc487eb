"""Sweep telemetry must merge deterministically across worker counts.

The ISSUE-level guarantee: ``grid_sweep(jobs=N, telemetry=...)`` fills
``telemetry_out`` with per-policy telemetry that is *byte-identical* to
the ``jobs=1`` run — same sketch buckets, same run summaries, same
top-k — because cells merge in fixed grid order (column, then seed) and
the sketch merge itself is associative.
"""

import json

from repro.experiments.config import PolicySpec
from repro.experiments.parallel import run_cell_groups
from repro.experiments.runner import (
    CellGroup,
    SweepColumn,
    TelemetrySpec,
    _run_group,
    grid_sweep,
    run_policy_on,
)
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

POLICIES = (
    PolicySpec.of("edf", "EDF"),
    PolicySpec.of("asets-star", "ASETS*"),
    PolicySpec.of("srpt", "SRPT"),
)
SEEDS = (11, 23)


def _columns():
    return [
        SweepColumn(x=u, spec=WorkloadSpec(n_transactions=60, utilization=u))
        for u in (0.6, 1.0)
    ]


def _sweep_telemetry(jobs):
    out = {}
    series = grid_sweep(
        _columns(),
        POLICIES,
        "average_tardiness",
        SEEDS,
        x_label="utilization",
        jobs=jobs,
        telemetry=TelemetrySpec(quantile_accuracy=0.01, topk=8),
        telemetry_out=out,
    )
    return series, out


def _canonical(telemetry_by_policy):
    return {
        name: json.dumps(t.as_dict(), sort_keys=True)
        for name, t in telemetry_by_policy.items()
    }


def test_parallel_telemetry_is_byte_identical_to_sequential():
    series1, out1 = _sweep_telemetry(jobs=1)
    series2, out2 = _sweep_telemetry(jobs=2)
    assert repr(series2.as_rows()) == repr(series1.as_rows())
    assert set(out1) == {"EDF", "ASETS*", "SRPT"}
    assert _canonical(out2) == _canonical(out1)


def test_merged_telemetry_covers_every_cell():
    _, out = _sweep_telemetry(jobs=2)
    n_cells = len(_columns()) * len(SEEDS)
    for telemetry in out.values():
        # Each cell contributes its full 60-transaction run.
        assert telemetry.summary.n == 60 * n_cells
        assert telemetry.summary.completed <= telemetry.summary.n
        assert telemetry.tardiness.count == telemetry.summary.completed


def test_merged_summary_is_the_grid_order_merge_of_the_cell_results():
    """The sweep's merged tally is the cells' own result summaries added
    column by column, seed by seed: bit for bit, floats included."""
    _, out = _sweep_telemetry(jobs=2)
    for policy in POLICIES:
        expected = None
        for column in _columns():
            for seed in SEEDS:
                summary = run_policy_on(
                    generate(column.spec, seed), policy
                ).stream_summary
                expected = (
                    summary if expected is None else expected.merge(summary)
                )
        assert out[policy.display].summary == expected, policy.display


def test_run_cell_groups_indexes_telemetry_by_coordinates():
    spec = WorkloadSpec(n_transactions=40, utilization=0.9)
    groups = [
        CellGroup(
            column=0,
            x=0.9,
            spec=spec,
            policies=POLICIES,
            cells=tuple((pos, seed) for pos in range(len(POLICIES))),
            metric="average_tardiness",
            telemetry=TelemetrySpec(topk=4),
        )
        for seed in SEEDS
    ]
    cell_telemetry = {}
    results, failures = run_cell_groups(
        _run_group, groups, jobs=2, telemetry_out=cell_telemetry
    )
    assert failures == []
    expected_keys = {
        (0, seed, pos) for seed in SEEDS for pos in range(len(POLICIES))
    }
    assert set(results) == expected_keys
    assert set(cell_telemetry) == expected_keys
    for telemetry in cell_telemetry.values():
        assert telemetry.summary.n == 40


def test_telemetry_out_untouched_without_spec():
    out = {}
    grid_sweep(
        _columns()[:1],
        POLICIES[:1],
        "average_tardiness",
        SEEDS[:1],
        x_label="utilization",
        telemetry_out=out,
    )
    assert out == {}


def test_sweep_quantiles_match_merged_sketch_bound():
    """The merged p99 answers from the same sketch machinery the unit
    tests bound; here we only pin that it is populated and ordered."""
    _, out = _sweep_telemetry(jobs=2)
    for name, telemetry in out.items():
        sketch = telemetry.tardiness
        assert sketch.count == telemetry.summary.completed
        p50 = sketch.quantile(0.5)
        p99 = sketch.quantile(0.99)
        assert p50 <= p99 + 1e-12, name
