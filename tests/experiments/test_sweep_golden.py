"""Golden sweep rows: every sweep entry point, in-process and pooled.

Each case pins a digest of ``repr`` of the series' column names and
``as_rows()`` at a small scale (n=60, seeds 1-2), captured from the
sweeps as they stood before they all ran through grid_sweep.  Both
executors (``jobs`` 1 and 2) must reproduce it bit for bit.  A partial
Figure 16 manifest written by that earlier code must still resume to the
same rows: the balance-aware grid keeps its manifest fingerprint.
"""

import hashlib
import pathlib
import shutil

import pytest

from repro.experiments import extensions, figures
from repro.experiments.config import TRANSACTION_LEVEL_POLICIES, ExperimentConfig
from repro.experiments.runner import utilization_sweep
from repro.faults import parse_fault_spec
from repro.workload.spec import WorkloadSpec

CFG = ExperimentConfig(n_transactions=60, seeds=(1, 2))

#: The CLI ``chaos`` target's default fault plan.
CHAOS = parse_fault_spec(
    "abort_prob=0.1,max_retries=2,stall_prob=0.1,stall_max=1.0,crash_count=1"
)

#: Header plus eight of the twelve Figure 16 cells at CFG.
PARTIAL_MANIFEST = pathlib.Path(__file__).parent / "fig16_partial.manifest"

CASES = {
    "utilization": (
        lambda jobs: utilization_sweep(
            WorkloadSpec(), TRANSACTION_LEVEL_POLICIES, "average_tardiness",
            CFG, jobs=jobs,
        ),
        "467a58cc0b3cb9836fb2fefbc6e55005003a1fe8135625699dc98047d658d3f4",
    ),
    "utilization-chaos": (
        lambda jobs: utilization_sweep(
            WorkloadSpec(), TRANSACTION_LEVEL_POLICIES, "average_tardiness",
            CFG, jobs=jobs, fault_spec=CHAOS,
        ),
        "6e3c2020dd7eedb63914fc334181e6a1075672fecfabec4bf995a7cf9091672b",
    ),
    "estimation": (
        lambda jobs: extensions.estimation_robustness(CFG, jobs=jobs),
        "d6533a9c2dbd0adc2c8f5249ef5b01b1ccefdebe82ea1e1723e58f92e7f29390",
    ),
    "multiserver": (
        lambda jobs: extensions.multiserver_sweep(CFG, jobs=jobs),
        "db97375defa69feb02a210de2b7e92fb0ca1717ef8e937fad28c128fb0a3bb14",
    ),
    "fig16": (
        lambda jobs: figures.figure16(CFG, jobs=jobs),
        "9a8c1c5a984a7372577475cffdef73e6c55bb6c6f6faf5fe29fd77dadaa240e1",
    ),
    "fig17": (
        lambda jobs: figures.figure17(CFG, jobs=jobs),
        "797156e13b242c54a4506e102dc3d2078469458f5df4c76334b9d029186bba37",
    ),
    "fig16c": (
        lambda jobs: figures.figure16_count_based(CFG, jobs=jobs),
        "89067b63595213c27af9b63cc849086bbaa3f04328792643d0f2b7e0563ad7ab",
    ),
    "fig17c": (
        lambda jobs: figures.figure17_count_based(CFG, jobs=jobs),
        "c8d3e3d3fe4555b1a707e85a734516e890884d0dbec1a558761cf928225a1d6e",
    ),
}


def digest(series):
    text = repr((series.column_names(), series.as_rows()))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_match_golden(case, jobs):
    sweep, expected = CASES[case]
    series = sweep(jobs)
    assert digest(series) == expected, repr(series.as_rows())


def test_earlier_partial_manifest_resumes_to_golden_rows(tmp_path):
    manifest = tmp_path / "fig16.manifest"
    shutil.copy(PARTIAL_MANIFEST, manifest)
    series = figures.figure16(CFG, resume=str(manifest))
    assert digest(series) == CASES["fig16"][1]
    # the four missing cells were appended for the next resume
    assert len(manifest.read_text().splitlines()) == 1 + 12
