"""Probe attachment: stage wrappers come and go without a trace.

``Scheduler.attach_probe`` installs one span-wrapping instance attribute
per entry of the class's ``_stages`` table and removes them all on
``attach_probe(None)``.  A detached policy must be indistinguishable
from one that never saw a probe: no stage name left in its instance
dict (the class methods run again) and picklable for checkpoints.
"""

import pickle

import pytest

from repro.obs.profile import PhaseProfiler
from repro.policies import available_policies, make_policy

#: Registry names whose factory needs arguments.
_KWARGS = {"balance-aware": {"time_rate": 0.01}}


def _policies_with_stages():
    out = []
    for name in available_policies():
        policy = make_policy(name, **_KWARGS.get(name, {}))
        if type(policy)._stages:
            out.append(name)
    return out


def _tree(policy):
    """The policy and every policy it forwards probes to."""
    inner = getattr(policy, "inner", None)
    return [policy] + ([] if inner is None else _tree(inner))


@pytest.mark.parametrize("name", _policies_with_stages())
def test_attach_then_detach_leaves_no_stage_attribute(name):
    policy = make_policy(name, **_KWARGS.get(name, {}))
    policy.attach_probe(PhaseProfiler().probe())
    stages = type(policy)._stages
    assert set(stages) <= set(vars(policy))
    policy.attach_probe(None)
    for member in _tree(policy):
        assert not set(type(member)._stages) & set(vars(member))
    pickle.dumps(policy)


def test_every_staged_policy_is_covered():
    # The paper's policies and the static-key baselines all carry stages.
    names = set(_policies_with_stages())
    assert {"asets", "asets-star", "balance-aware", "edf", "ls"} <= names


def test_probe_forwarded_to_inner_policy():
    policy = make_policy("balance-aware", time_rate=0.01)
    policy.attach_probe(PhaseProfiler().probe())
    assert set(type(policy.inner)._stages) <= set(vars(policy.inner))
    policy.attach_probe(None)
    assert not set(type(policy.inner)._stages) & set(vars(policy.inner))


def test_reattach_replaces_rather_than_nests():
    policy = make_policy("edf")
    first, second = PhaseProfiler(), PhaseProfiler()
    policy.attach_probe(first.probe())
    policy.attach_probe(second.probe())
    policy.bind([], None)
    first.select_begin(0)
    second.select_begin(0)
    policy.select(0.0)
    assert "heap-pop" in second.snapshot().probes
    assert "heap-pop" not in first.snapshot().probes


def test_detach_keeps_instance_wrappers_of_public_hooks():
    # Callers may wrap public hooks on the instance (a tracing harness
    # does, before the engine binds and detaches); stages are private,
    # so detaching never removes those.
    policy = make_policy("asets-star")
    plain = policy.select

    def traced(now):
        return plain(now)

    policy.select = traced
    policy.attach_probe(None)
    assert vars(policy)["select"] is traced
