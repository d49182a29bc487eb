"""The public API surface: what `import repro` promises.

Guards against accidental breakage of the names the README and examples
rely on — every name in ``__all__`` must resolve, and the headline
quickstart from the package docstring must work as written.
"""

import os
import pathlib
import subprocess
import sys

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_is_semver_like():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_package_docstring_quickstart():
    workload = repro.generate(
        repro.WorkloadSpec(n_transactions=50, utilization=0.7), seed=42
    )
    result = repro.Simulator(
        workload.transactions, repro.make_policy("asets")
    ).run()
    assert result.average_tardiness >= 0.0


def test_subpackage_namespaces():
    import repro.analysis
    import repro.experiments
    import repro.metrics
    import repro.policies
    import repro.sim
    import repro.webdb
    import repro.workload

    assert callable(repro.webdb.parse_sql)
    assert callable(repro.webdb.optimize)
    assert callable(repro.analysis.optimal_total_weighted_tardiness)
    assert callable(repro.workload.save_workload)
    assert callable(repro.metrics.render_chart)
    assert callable(repro.sim.render_gantt)
    assert callable(repro.sim.validate_schedule)


def test_sim_loads_no_log_analysis():
    # Who ran when is read from the event log, but only on demand: the
    # simulator package must not pull the log analysis in at import.
    code = (
        "import sys, repro.sim; "
        "sys.exit(any(m.startswith('repro.obs.analyze') for m in sys.modules))"
    )
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=False,
        timeout=60,
    )
    assert completed.returncode == 0


def test_policy_registry_covers_readme_table():
    names = set(repro.available_policies())
    documented = {
        "fcfs", "edf", "srpt", "ls", "hdf", "hvf", "mix",
        "asets", "ready", "asets-star", "balance-aware", "non-preemptive",
    }
    assert documented <= names
