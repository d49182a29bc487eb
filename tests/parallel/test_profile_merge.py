"""Sweep profiling: per-cell profiles merge deterministically.

Profile *wall times* are inherently nondeterministic, so the guarantee
here is structural: ``grid_sweep(profile=True, profile_out=...)`` fills
``profile_out`` with one merged :class:`ProfileSnapshot` per policy whose
counts cover every cell, whose count-structure is identical across worker
counts (cells merge in fixed grid order), and which is absent entirely
when profiling is off (zero-cost default).
"""

from repro.experiments.config import PolicySpec
from repro.experiments.runner import SweepColumn, grid_sweep
from repro.obs.profile import ProfileSnapshot
from repro.workload.spec import WorkloadSpec

POLICIES = (
    PolicySpec.of("edf", "EDF"),
    PolicySpec.of("asets-star", "ASETS*"),
)
SEEDS = (11, 23)


def _columns():
    return [
        SweepColumn(x=u, spec=WorkloadSpec(n_transactions=60, utilization=u))
        for u in (0.6, 1.0)
    ]


def _sweep_profiles(jobs):
    out = {}
    series = grid_sweep(
        _columns(),
        POLICIES,
        "average_tardiness",
        SEEDS,
        x_label="utilization",
        jobs=jobs,
        profile=True,
        profile_out=out,
    )
    return series, out


def _count_structure(snapshot):
    return {
        "phases": {k: v.count for k, v in snapshot.phases.items()},
        "probes": {k: v.count for k, v in snapshot.probes.items()},
        "depth": {
            phase: [(b, c) for b, c, _, _ in snapshot.depth_rows(phase)]
            for phase in snapshot.depth
        },
    }


def test_parallel_profile_structure_matches_sequential():
    series1, out1 = _sweep_profiles(jobs=1)
    series2, out2 = _sweep_profiles(jobs=2)
    # Profiling never perturbs the simulation results themselves.
    assert repr(series2.as_rows()) == repr(series1.as_rows())
    assert set(out1) == {"EDF", "ASETS*"} == set(out2)
    for name in out1:
        assert _count_structure(out1[name]) == _count_structure(out2[name])


def test_merged_profile_covers_every_cell():
    _, out = _sweep_profiles(jobs=2)
    n_cells = len(_columns()) * len(SEEDS)
    for name, snapshot in out.items():
        assert isinstance(snapshot, ProfileSnapshot)
        assert snapshot.policy == name
        # Every cell ran to completion, so each contributes at least one
        # scheduling point's worth of select samples.
        assert snapshot.phases["select"].count >= n_cells
        assert snapshot.phases["select"].total_s > 0.0
    # The probe-instrumented policy carries its select-stage spans.
    assert "incremental" in out["ASETS*"].probes
    assert "incremental/touch" in out["ASETS*"].probes


def test_profile_out_untouched_without_flag():
    out = {}
    grid_sweep(
        _columns()[:1],
        POLICIES[:1],
        "average_tardiness",
        SEEDS[:1],
        x_label="utilization",
        profile_out=out,
    )
    assert out == {}
