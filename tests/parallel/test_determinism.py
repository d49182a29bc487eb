"""Property: every sweep executor reproduces an independent reference.

``utilization_sweep`` must produce exactly the rows of
:func:`~tests.parallel.sweep_oracle.oracle_sweep` — same floats, bit for
bit — in-process (``jobs=1``) and through the pool (``jobs=N``), for any
utilization grid, seed set and policy mix, including a policy whose
every cell raises.  Rows are compared through ``repr`` because a
fully-failed policy column is ``nan`` and ``nan != nan``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import utilization_sweep
from repro.workload.spec import WorkloadSpec
from tests.parallel.sweep_oracle import oracle_sweep

SPEC = WorkloadSpec(zipf_alpha=0.5, k_max=3.0)

#: Distinct-display policy pool to sample sweeps from.  BOOM's bogus
#: constructor kwarg makes every one of its cells fail inside the worker.
POLICY_POOL = (
    PolicySpec.of("edf", "EDF"),
    PolicySpec.of("srpt", "SRPT"),
    PolicySpec.of("fcfs", "FCFS"),
    PolicySpec.of("asets", "ASETS"),
    PolicySpec.of("edf", "BOOM", bogus_kwarg=1),
)

SEED_POOL = (11, 23, 37, 41, 53)


def rows_repr(series):
    return repr(series.as_rows())


@st.composite
def sweep_cases(draw):
    utils = draw(
        st.lists(
            st.sampled_from((0.2, 0.5, 0.8, 1.0)),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    policies = tuple(
        draw(
            st.lists(
                st.sampled_from(POLICY_POOL),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    n_seeds = draw(st.integers(min_value=1, max_value=2))
    jobs = draw(st.sampled_from((2, 4)))
    return sorted(utils), policies, n_seeds, jobs


@given(sweep_cases())
@settings(max_examples=6, deadline=None)
def test_parallel_rows_equal_sequential_rows(case):
    utils, policies, n_seeds, jobs = case
    config = ExperimentConfig().scaled(30, n_seeds)
    rows, failed = oracle_sweep(
        SPEC, policies, "average_tardiness", 30, config.seeds, utils
    )
    for n_jobs in (1, jobs):
        failures = []
        series = utilization_sweep(
            SPEC,
            policies,
            "average_tardiness",
            config,
            utilizations=utils,
            jobs=n_jobs,
            failures=failures,
        )
        assert rows_repr(series) == repr(rows)
        assert [(f.x, f.seed, f.policy) for f in failures] == failed


def test_parallel_matches_the_legacy_sequential_path():
    # The oracle is the pre-existing in-process loop, kept outside the
    # package: both executors must reproduce it exactly, not just each
    # other.
    config = ExperimentConfig().scaled(60, 2)
    policies = (PolicySpec.of("edf", "EDF"), PolicySpec.of("asets", "ASETS"))
    legacy, _ = oracle_sweep(
        SPEC, policies, "average_tardiness", 60, config.seeds, (0.3, 0.9)
    )
    for jobs in (1, 4):
        series = utilization_sweep(
            SPEC,
            policies,
            "average_tardiness",
            config,
            utilizations=(0.3, 0.9),
            jobs=jobs,
        )
        assert rows_repr(series) == repr(legacy)


def test_raising_policy_leaves_other_columns_exact():
    config = ExperimentConfig().scaled(40, 2)
    clean = (PolicySpec.of("edf", "EDF"), PolicySpec.of("srpt", "SRPT"))
    with_boom = clean + (PolicySpec.of("edf", "BOOM", bogus_kwarg=1),)
    baseline = utilization_sweep(
        SPEC, clean, "average_tardiness", config, utilizations=(0.7,)
    )
    failures = []
    mixed = utilization_sweep(
        SPEC,
        with_boom,
        "average_tardiness",
        config,
        utilizations=(0.7,),
        jobs=2,
        failures=failures,
    )
    for label in ("EDF", "SRPT"):
        assert mixed.get(label) == baseline.get(label)
    assert len(failures) == 2  # one per seed
    assert all(f.policy == "BOOM" for f in failures)
