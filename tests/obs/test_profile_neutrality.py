"""Profiler neutrality: attaching a profiler never changes a simulation.

The profiler lives outside the deterministic boundary — it reads wall
clocks but writes nothing the engine or the policies consume.  The
hypothesis test pins that: across random (policy, seed, utilization)
draws, a profiler-on run emits a byte-identical JSONL event stream
(modulo the one wall-clock field, ``select_s``) and equal
``SimulationResult`` aggregates versus the profiler-off run of the same
workload.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.obs import Recorder
from repro.obs.profile import PhaseProfiler
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

#: Every policy with probe stages.  Balance-aware forwards its probe to
#: the inner ASETS* and adds its own ``aging`` span; a high count rate
#: makes the aging override fire often in 80 transactions.
POLICIES = (
    PolicySpec.of("edf"),
    PolicySpec.of("hdf"),
    PolicySpec.of("srpt"),
    PolicySpec.of("ls"),
    PolicySpec.of("hvf"),
    PolicySpec.of("mix"),
    PolicySpec.of("asets"),
    PolicySpec.of("asets-star"),
    PolicySpec.of("fcfs"),
    PolicySpec.of("balance-aware", count_rate=0.1),
)


def norm(events):
    """Canonical JSON per event, wall-clock ``select_s`` removed."""
    out = []
    for event in events:
        event = dict(event)
        event.pop("select_s", None)
        out.append(json.dumps(event, sort_keys=True))
    return out


def record(policy, seed, utilization, profiled):
    workload = generate(
        WorkloadSpec(n_transactions=80, utilization=utilization), seed=seed
    )
    recorder = Recorder()
    profiler = PhaseProfiler() if profiled else None
    result = run_policy_on(
        workload,
        policy,
        instrument=recorder,
        profiler=profiler,
    )
    return result, recorder.events


@settings(max_examples=10, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
    utilization=st.sampled_from([0.8, 1.2, 2.0]),
)
def test_profiler_on_matches_profiler_off(policy, seed, utilization):
    plain_result, plain_events = record(policy, seed, utilization, False)
    prof_result, prof_events = record(policy, seed, utilization, True)
    assert norm(prof_events) == norm(plain_events)
    assert prof_result.average_tardiness == plain_result.average_tardiness
    assert prof_result.deadline_miss_ratio == plain_result.deadline_miss_ratio
    assert prof_result.total_tardiness == plain_result.total_tardiness
    assert prof_result.scheduling_points == plain_result.scheduling_points


@pytest.mark.parametrize("policy", POLICIES, ids=lambda spec: spec.name)
def test_every_probed_policy_is_neutral(policy):
    # The property above samples policies; this pins each one once.
    plain_result, plain_events = record(policy, 7, 1.2, False)
    prof_result, prof_events = record(policy, 7, 1.2, True)
    assert norm(prof_events) == norm(plain_events)
    assert prof_result.average_tardiness == plain_result.average_tardiness
