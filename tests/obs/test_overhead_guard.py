"""Overhead guard: with no instrument attached, the engine pays nothing.

The instrumentation layer's contract is that ``instrument=None`` (the
default everywhere) keeps the hot path at pre-instrumentation cost: one
``is not None`` check per call site, no attribute lookups, no
``perf_counter`` reads, no calls into ``repro.obs``.  Five guards:

1. static — the engine source satisfies lint rules RL001 (``perf_counter``
   only inside an instrument-guarded branch) and RL006 (every hook call
   site guarded by ``is not None``).  The assertion *delegates to the rule
   implementations in* :mod:`repro.lint`, so this test and the blocking
   CI lint job can never drift apart: tightening or fixing a rule
   tightens both.
2. dynamic — ``perf_counter`` is never consulted when disabled;
3. dynamic — no function defined in ``repro/obs/`` executes when
   disabled;
4. wall-time — a 5000-transaction run with ``instrument=None`` stays
   within 5% of the same run with a :class:`NullInstrument` attached,
   as the median ratio over interleaved pairs of runs.
   The null-instrument run performs a strict superset of the disabled
   path's work (every hook call site fires a no-op method), so the
   disabled path must not come out slower; this pins the "fast path"
   to the pre-hook code path's cost.
5. line count — the same claim as 4, counted instead of timed: under
   ``sys.settrace`` the ``instrument=None`` run executes no more engine
   source lines than the :class:`NullInstrument` run.  Unlike a
   wall-clock ratio it cannot be moved by host noise.
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

import pytest

import repro.sim.engine as engine_mod
from repro.lint import check_file
from repro.obs import NullInstrument
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec


def _run(workload, instrument):
    workload.reset()
    return Simulator(
        workload.transactions, make_policy("edf"), instrument=instrument
    ).run()


def test_engine_source_satisfies_hot_path_rules():
    """Static half of the guard, delegated to repro.lint RL001/RL006.

    The hand-written structural assertion this replaces could drift from
    the CI lint job; running the actual rule implementations over the
    engine source means one shared definition of "perf_counter is
    guarded" and "every hook call site is guarded".
    """
    engine_path = Path(engine_mod.__file__)
    findings = check_file(
        engine_path, module="repro.sim.engine", select=["RL001", "RL006"]
    )
    assert findings == [], "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in findings
    )


def test_profile_module_satisfies_hot_path_rules():
    """RL001 also covers repro.obs.profile: every ``perf_counter`` read
    there must sit behind an ``enabled`` guard, so a disabled profiler
    accumulates nothing."""
    import repro.obs.profile as profile_mod

    findings = check_file(
        Path(profile_mod.__file__),
        module="repro.obs.profile",
        select=["RL001"],
    )
    assert findings == [], "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in findings
    )


def test_perf_counter_untouched_when_disabled(monkeypatch):
    real = engine_mod.perf_counter
    calls = [0]

    def counting():
        calls[0] += 1
        return real()

    monkeypatch.setattr(engine_mod, "perf_counter", counting)
    workload = generate(
        WorkloadSpec(n_transactions=100, utilization=0.9), seed=11
    )
    _run(workload, None)
    assert calls[0] == 0, "disabled engine must not measure select latency"
    _run(workload, NullInstrument())
    assert calls[0] > 0, "instrumented engine must measure select latency"


def test_no_obs_code_runs_when_disabled():
    workload = generate(
        WorkloadSpec(n_transactions=60, utilization=0.9), seed=11
    )
    workload.reset()
    sim = Simulator(workload.transactions, make_policy("edf"))
    seen = []

    def profiler(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename.replace("\\", "/")
            if "/obs/" in filename:
                seen.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert seen == [], f"obs code executed on the disabled path: {seen}"


def test_disabled_run_within_5_percent_of_null_instrument_path():
    workload = generate(
        WorkloadSpec(n_transactions=5000, utilization=0.9), seed=11
    )

    def timed(instrument):
        start = perf_counter()
        _run(workload, instrument)
        return perf_counter() - start

    timed(None)  # warm caches before measuring
    # Interleaved pairs, alternating which run goes first, so host noise
    # hits both sides of each ratio alike; the median drops outliers.
    ratios = []
    for pair in range(21):
        if pair % 2:
            t_null_object = timed(NullInstrument())
            t_disabled = timed(None)
        else:
            t_disabled = timed(None)
            t_null_object = timed(NullInstrument())
        ratios.append(t_disabled / t_null_object)
    ratio = statistics.median(ratios)
    assert ratio <= 1.05, (
        f"instrument=None took {ratio:.3f}x the NullInstrument run (median "
        f"of {len(ratios)} interleaved pairs: "
        f"{', '.join(f'{r:.3f}' for r in ratios)}) — the disabled path "
        "must not be slower"
    )


def _engine_lines(workload, instrument):
    """Source lines of ``repro/sim/engine.py`` executed by one run."""
    engine_file = engine_mod.__file__
    count = [0]

    def local(frame, event, arg):
        if event == "line":
            count[0] += 1
        return local

    def tracer(frame, event, arg):
        # Line events only in engine frames; other frames run untraced.
        return local if frame.f_code.co_filename == engine_file else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        _run(workload, instrument)
    finally:
        sys.settrace(previous)
    return count[0]


def test_disabled_run_executes_no_more_engine_lines_than_null_instrument():
    workload = generate(
        WorkloadSpec(n_transactions=300, utilization=0.9), seed=11
    )
    disabled = _engine_lines(workload, None)
    null_object = _engine_lines(workload, NullInstrument())
    assert disabled > 0
    assert disabled <= null_object, (
        f"instrument=None executed {disabled} engine lines, NullInstrument "
        f"{null_object} — the disabled path must not do more work"
    )
