"""Simulator throughput: the one benchmark here that measures *time*.

Every other bench uses pytest-benchmark as a harness for regenerating the
paper's series; this one uses it for its real purpose — wall-clock
performance of the discrete-event engine per policy, guarding against
complexity regressions (the paper argues ASETS* scales like EDF/SRPT via
O(log N) priority-queue updates; a quadratic regression in the lazy heaps
would show up here immediately).

Besides the pytest-benchmark table, the module emits a machine-readable
``BENCH_engine.json`` at the repo root — per-policy throughput (txns/s),
``policy.select()`` wall-time percentiles from one instrumented run, and
a full per-phase profile from one
:class:`~repro.obs.profile.PhaseProfiler` run: per-phase/probe p50/p95
and the fitted cost-vs-depth scaling exponents (docs/profiling.md) —
so successive PRs leave a comparable perf trajectory (CI uploads the file
as an artifact on every run).  Schema 4 adds two gated tolerances on top
of the schema-3 payload: ``depth_exponent_tolerance`` (an absolute
ceiling per (policy, phase) scaling exponent — the check that catches an
incremental structure quietly degenerating back into a linear scan) and
``tier_wall_growth_tolerance`` (per-tier wall time, which is where the
million-transaction run would feel it).

The streaming-tier tests take the same snapshot at scale: for each tier
in ``REPRO_BENCH_TIERS`` (default ``100000``; add ``1000000`` for the
full-size run) they launch ``rss_probe.py`` in fresh subprocesses —
once on the plain engine path and once in constant-memory streaming
mode — and record peak RSS, wall time and the streaming overhead ratio.
``python -m repro.perfgate`` compares the emitted file against the
committed baseline with the tolerances stored in its ``gate`` section;
set ``REPRO_BENCH_OUT`` to write somewhere other than the baseline
path (CI's perf-gate job writes ``BENCH_current.json`` so the baseline
it gates against stays untouched).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.config import PolicySpec
from repro.metrics.distributions import percentile
from repro.obs import PhaseProfiler, Recorder
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

POLICIES = ("fcfs", "edf", "srpt", "ls", "hdf", "asets", "asets-star")

#: Workload size; CI smoke runs set REPRO_BENCH_N to a small value.
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "1000"))

#: Streaming-tier sizes (comma-separated). Empty string disables the
#: tier tests; "100000,1000000" adds the million-transaction run.
TIERS = tuple(
    int(t)
    for t in os.environ.get("REPRO_BENCH_TIERS", "100000").split(",")
    if t.strip()
)

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Machine-readable perf snapshot, written after the last policy runs.
BENCH_JSON = pathlib.Path(
    os.environ.get("REPRO_BENCH_OUT", _REPO_ROOT / "BENCH_engine.json")
)

#: Regression tolerances consumed by ``python -m repro.perfgate``.
#: Generous by design: CI machines are noisy and shared, so the gate
#: flags order-of-magnitude slips (a quadratic regression, unbounded
#: record retention), not scheduler jitter.
GATE = {
    "throughput_drop_tolerance": 0.6,
    "rss_growth_tolerance": 0.5,
    "streaming_overhead_max": 0.5,
    # Per-phase mean cost per occurrence (profile section, schema 3):
    # loose enough for shared-CI noise on microsecond phases, tight
    # enough to catch a complexity-class slip in any single phase.
    "phase_cost_growth_tolerance": 3.0,
    # Absolute ceiling on each (policy, phase) cost-vs-depth scaling
    # exponent (schema 4).  Exponents are complexity classes, so the
    # tolerance is additive, not relative: ~depth^0.1 drifting past
    # ~depth^0.6 means an incremental structure fell back to scanning.
    "depth_exponent_tolerance": 0.5,
    # Per-tier plain/streaming wall time (schema 4): the 10^6 tier is
    # where a quadratic slip becomes minutes, so gate it directly.
    "tier_wall_growth_tolerance": 1.0,
}

#: policy name -> measurements, filled by the parametrized benchmark.
_RESULTS: dict[str, dict] = {}

#: str(tier size) -> plain/streaming probe results + derived ratios.
_TIER_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        n_transactions=BENCH_N,
        utilization=0.9,
        weighted=True,
        with_workflows=True,
    )
    return generate(spec, seed=1)


@pytest.fixture(scope="module", autouse=True)
def bench_json_sink():
    """Write the perf snapshot once every parametrized case ran."""
    yield
    if not _RESULTS and not _TIER_RESULTS:
        return
    payload = {
        "schema": 4,
        "n_transactions": BENCH_N,
        "utilization": 0.9,
        "seed": 1,
        "policies": _RESULTS,
        "tiers": _TIER_RESULTS,
        "gate": GATE,
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.mark.parametrize("name", POLICIES)
def test_engine_throughput(name, workload, benchmark):
    policy_spec = PolicySpec.of(name)

    def run():
        workload.reset()
        return Simulator(
            workload.transactions,
            policy_spec.make(),
            workflow_set=workload.workflow_set,
        ).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.n == BENCH_N

    # One instrumented run (outside the timed rounds) for select() wall
    # times; its own overhead does not pollute the throughput numbers.
    recorder = Recorder()
    workload.reset()
    Simulator(
        workload.transactions,
        policy_spec.make(),
        workflow_set=workload.workflow_set,
        instrument=recorder,
    ).run()
    samples = recorder.select_samples

    # One profiled run (also outside the timed rounds) for the schema-3
    # per-phase breakdown and cost-vs-depth scaling exponents.
    profiler = PhaseProfiler()
    workload.reset()
    Simulator(
        workload.transactions,
        policy_spec.make(),
        workflow_set=workload.workflow_set,
        profiler=profiler,
    ).run()

    mean_s = benchmark.stats.stats.mean
    _RESULTS[name] = {
        "mean_run_seconds": mean_s,
        "min_run_seconds": benchmark.stats.stats.min,
        "throughput_txns_per_s": BENCH_N / mean_s if mean_s > 0 else 0.0,
        "select_p50_seconds": percentile(samples, 50) if samples else 0.0,
        "select_p95_seconds": percentile(samples, 95) if samples else 0.0,
        "scheduling_points": len(samples),
        "profile": profiler.snapshot(name).as_dict(),
    }


def _probe(n: int, mode: str) -> dict:
    """Run ``rss_probe.py`` in a fresh interpreter and parse its JSON."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    # Two in-process reps (best wall time) below a million transactions;
    # the overhead ratio compares mins, damping scheduler noise.
    reps = "2" if n < 1_000_000 else "1"
    proc = subprocess.run(
        [
            sys.executable,
            str(pathlib.Path(__file__).with_name("rss_probe.py")),
            "--n",
            str(n),
            "--mode",
            mode,
            "--reps",
            reps,
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("tier", TIERS)
def test_streaming_tier(tier):
    """Peak-RSS + overhead snapshot of the constant-memory path at scale.

    Each mode runs in its own subprocess so ``ru_maxrss`` (a
    process-lifetime high-water mark) isolates that run.  The asserts
    here are liveness-level only — the actual regression gate is
    ``python -m repro.perfgate`` against the committed baseline, whose
    tolerances live in the snapshot's ``gate`` section.
    """
    plain = _probe(tier, "plain")
    streaming = _probe(tier, "streaming")
    assert plain["completed"] + plain["tardy"] >= 0  # probe parsed
    assert streaming["completed"] == plain["completed"]
    assert streaming["tardy"] == plain["tardy"]
    overhead = (
        streaming["wall_seconds"] / plain["wall_seconds"] - 1.0
        if plain["wall_seconds"] > 0
        else 0.0
    )
    _TIER_RESULTS[str(tier)] = {
        "n": tier,
        "plain": plain,
        "streaming": streaming,
        "streaming_overhead_ratio": overhead,
        "rss_ratio_streaming_vs_plain": (
            streaming["peak_rss_mb"] / plain["peak_rss_mb"]
            if plain["peak_rss_mb"] > 0
            else 0.0
        ),
    }
