"""RL011 — simulated-time vs wall-clock dimension analysis.

The simulator has two clocks that must never meet in arithmetic: the
*simulated* clock (``engine.now``, deadlines, arrival/slack spans — the
units §IV's tardiness metrics are defined in) and the *wall* clock
(``time.perf_counter()``/``monotonic()`` — host-side measurement used
by heartbeats and the perf gate).  Adding, subtracting or comparing a
value from one dimension against the other is always a bug: the result
is a meaningless number that silently corrupts tardiness, window
boundaries or timeout tests.

The rule runs the taint engine with two label tags, ``sim`` and
``wall``:

* ``sim`` sources — attribute loads of ``.now``/``.deadline``, calls to
  ``slack(...)``/``latest_start(...)``, and parameters named
  ``now``/``at``/``sim_now``/``deadline`` (the instrument-hook and
  record-builder convention);
* ``wall`` sources — ``perf_counter()``/``monotonic()``/``time.time()``
  calls and parameters whose name starts with ``wall``.

Violations:

* a ``+``/``-`` expression or a comparison with one pure-``sim`` operand
  and one pure-``wall`` operand (``*``/``/`` stay legal — dividing a
  count by a wall-clock span is how rates are made);
* passing a ``wall`` value to a parameter a known hook/record-builder
  signature declares as sim-time (``arrival_record(txn, wall)``, or
  ``feasible_at(d, r, now=wall)``).

Scope: ``repro.sim``, ``repro.policies``, ``repro.faults`` and
``repro.obs`` — everything that touches either clock.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.dataflow import (
    EMPTY,
    Env,
    Label,
    TaintAnalysis,
    TaintSpec,
    iter_functions,
    point_exprs,
    summarize_module,
)
from repro.lint.engine import ModuleContext, Rule
from repro.lint.findings import Finding

__all__ = ["TimeDimensionMixing"]

TIME_SCOPES = ("repro.sim", "repro.policies", "repro.faults", "repro.obs")

SIM = "sim"
WALL = "wall"

#: Attribute loads that produce simulated-time values.
SIM_ATTRS = frozenset({"now", "deadline"})

#: Calls returning simulated-time values (:mod:`repro.policies.ordering`).
SIM_CALLS = frozenset({"slack", "latest_start"})

#: Calls returning wall-clock samples.
WALL_CALLS = frozenset({"perf_counter", "monotonic"})

#: Parameter names carrying sim-time by convention (hooks, builders).
SIM_PARAMS = frozenset({"now", "at", "sim_now", "deadline"})

#: Known sim-time parameters of hook/record-builder signatures, for
#: call-site checking: name -> (positional indices at the call site,
#: keyword names).  Methods are listed with ``self`` already stripped
#: (call sites never pass it).
HOOK_SIGNATURES: dict[str, tuple[frozenset[int], frozenset[str]]] = {
    "arrival_record": (frozenset({1}), frozenset({"now"})),
    "dispatch_record": (frozenset({1}), frozenset({"now"})),
    "preempt_record": (frozenset({1}), frozenset({"now"})),
    "overhead_record": (frozenset({2}), frozenset({"now"})),
    "completion_record": (frozenset({1}), frozenset({"now"})),
    "stall_record": (frozenset({2}), frozenset({"now"})),
    "crash_record": (frozenset({0}), frozenset({"now"})),
    "recover_record": (frozenset({0}), frozenset({"now"})),
    "shed_record": (frozenset({1}), frozenset({"now"})),
    "abort_record": (frozenset(), frozenset({"now"})),
    "retry_record": (frozenset(), frozenset({"now"})),
    "sched_record": (frozenset(), frozenset({"now"})),
    "run_end_record": (frozenset({0}), frozenset({"now"})),
    "advance": (frozenset({0}), frozenset({"now"})),
    "observe_point": (frozenset({0}), frozenset({"now"})),
    "feasible_at": (frozenset({2}), frozenset({"now"})),
    "slack": (frozenset({2}), frozenset({"now"})),
}

#: Arithmetic operators where mixing dimensions is an error.  ``*`` and
#: ``/`` are excluded: scaling a sim span or computing a rate against a
#: wall span is dimensionally sound.
_MIXING_OPS = (ast.Add, ast.Sub)


class _TimeSpec(TaintSpec):
    """Classify sim and wall sources for the taint engine."""

    def classify_attribute(self, node: ast.Attribute) -> frozenset[Label]:
        if node.attr in SIM_ATTRS and isinstance(node.ctx, ast.Load):
            return frozenset({(SIM, f"`.{node.attr}`", node.lineno)})
        return EMPTY

    def classify_call(self, node: ast.Call) -> frozenset[Label]:
        name = _call_name(node.func)
        if name in WALL_CALLS:
            return frozenset({(WALL, f"`{name}()`", node.lineno)})
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            return frozenset({(WALL, "`time.time()`", node.lineno)})
        if name in SIM_CALLS:
            return frozenset({(SIM, f"`{name}(...)`", node.lineno)})
        return EMPTY

    def param_labels(self, name: str) -> frozenset[Label]:
        if name in SIM_PARAMS:
            return frozenset({(SIM, f"parameter `{name}`", 0)})
        if name.startswith("wall"):
            return frozenset({(WALL, f"parameter `{name}`", 0)})
        return EMPTY


def _dims(labels: frozenset[Label]) -> set[str]:
    return {tag for tag, _, _ in labels if tag in (SIM, WALL)}


def _describe(labels: frozenset[Label], dim: str) -> str:
    parts = sorted({desc for tag, desc, _ in labels if tag == dim})
    return ", ".join(parts)


class TimeDimensionMixing(Rule):
    """RL011: sim-time and wall-clock values never mix."""

    rule_id = "RL011"
    summary = (
        "simulated-time values (engine.now, deadlines) and wall-clock "
        "samples (perf_counter) are never added, subtracted, compared, "
        "or passed across the sim-time hook boundary"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.in_package(*TIME_SCOPES):
            return ()
        return list(self._check(module))

    def _check(self, module: ModuleContext) -> Iterator[Finding]:
        spec = _TimeSpec()
        summaries = summarize_module(module.tree, spec)
        seen: set[tuple[int, int]] = set()
        for func, _cls in iter_functions(module.tree):
            analysis = TaintAnalysis(func, spec, summaries)
            analysis.run()
            for stmt, env in analysis.iter_states():
                for expr in point_exprs(stmt):
                    yield from self._check_expr(
                        module, expr, env, analysis, seen
                    )

    def _check_expr(
        self,
        module: ModuleContext,
        expr: ast.expr,
        env: Env,
        analysis: TaintAnalysis,
        seen: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, _MIXING_OPS
            ):
                yield from self._check_pair(
                    module,
                    node,
                    analysis.eval(node.left, dict(env)),
                    analysis.eval(node.right, dict(env)),
                    "arithmetic",
                    seen,
                )
            elif isinstance(node, ast.Compare):
                left_labels = analysis.eval(node.left, dict(env))
                for comparator in node.comparators:
                    yield from self._check_pair(
                        module,
                        node,
                        left_labels,
                        analysis.eval(comparator, dict(env)),
                        "comparison",
                        seen,
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_hook_call(
                    module, node, env, analysis, seen
                )

    def _check_pair(
        self,
        module: ModuleContext,
        node: ast.AST,
        left: frozenset[Label],
        right: frozenset[Label],
        what: str,
        seen: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        ldims, rdims = _dims(left), _dims(right)
        mixed = (
            (ldims == {SIM} and rdims == {WALL})
            or (ldims == {WALL} and rdims == {SIM})
        )
        if not mixed:
            return
        sim_side = left if SIM in ldims else right
        wall_side = right if sim_side is left else left
        yield from self._emit(
            module,
            node,
            seen,
            f"{what} mixes time dimensions: simulated time "
            f"({_describe(sim_side, SIM)}) vs wall clock "
            f"({_describe(wall_side, WALL)})",
        )

    def _check_hook_call(
        self,
        module: ModuleContext,
        node: ast.Call,
        env: Env,
        analysis: TaintAnalysis,
        seen: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        name = _call_name(node.func)
        if name is None:
            return
        signature = HOOK_SIGNATURES.get(name)
        if signature is None:
            return
        positions, keywords = signature
        for index, arg in enumerate(node.args):
            if index not in positions:
                continue
            labels = analysis.eval(arg, dict(env))
            if _dims(labels) == {WALL}:
                yield from self._emit(
                    module,
                    arg,
                    seen,
                    f"wall-clock value ({_describe(labels, WALL)}) passed "
                    f"to sim-time parameter of `{name}(...)`",
                )
        for kw in node.keywords:
            if kw.arg not in keywords:
                continue
            labels = analysis.eval(kw.value, dict(env))
            if _dims(labels) == {WALL}:
                yield from self._emit(
                    module,
                    kw.value,
                    seen,
                    f"wall-clock value ({_describe(labels, WALL)}) passed "
                    f"to sim-time parameter `{kw.arg}` of `{name}(...)`",
                )

    def _emit(
        self,
        module: ModuleContext,
        node: ast.AST,
        seen: set[tuple[int, int]],
        what: str,
    ) -> Iterator[Finding]:
        key = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))
        if key in seen:
            return
        seen.add(key)
        yield self.finding(
            module,
            node,
            f"{what}; keep the clocks apart — convert explicitly or "
            "route wall measurements through the heartbeat/perf-gate "
            "surfaces only",
        )


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
