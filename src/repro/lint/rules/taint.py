"""RL010 — believed-vs-true basis taint tracking.

RL008 bans *direct* loads of ``Transaction.remaining`` inside
``repro.policies`` — but the pre-PR-4 ASETS* leak showed the same
oracle read slipping through a local variable, a same-module helper's
return value, a ``getattr`` call, or a comprehension, none of which a
per-statement rule can see.  RL010
closes that blind spot with the dataflow engine of
:mod:`repro.lint.dataflow`: ground-truth reads become *taint labels*
that propagate through assignments, arithmetic, container literals,
tuple unpacking, comprehensions and one-level same-module call
summaries, and a finding is raised when a tainted value reaches a
**policy decision site**:

* any comparison (feasibility tests, negative-impact comparisons,
  cached-key comparisons like ``key < best_key``);
* an argument or ``key=`` callable of a ranking call (``sorted``,
  ``list.sort``, ``min``/``max``, ``heapq`` pushes, ``bisect.insort``);
* the return value of a ranking function (``sort_key``, ``key``,
  ``rank``, ``priority``, ``admit``, ``should_shed``).

The rule covers ``repro.policies`` plus the two satellite surfaces that
manipulate believed/true remaining time: ``repro.faults`` (admission
predicates) and ``repro.obs.streaming``.  The sanctioned accessor is
``scheduling_remaining`` (on ``Transaction`` and
``RepresentativeView``); values derived from it are never tainted.
An intentionally clairvoyant baseline suppresses with
``# repro-lint: disable=RL010 -- <why>`` at the decision site.
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

__all__ = ["BelievedBasisTaint"]

#: Packages where policy/admission decisions must use the believed basis.
TAINT_SCOPES = ("repro.policies", "repro.faults", "repro.obs.streaming")

#: Ground-truth / raw-store attributes that seed taint (RL008's set).
ORACLE_ATTRS = frozenset({"remaining"})

#: Calls whose arguments (or ``key=``) are ranking expressions.
RANKING_CALLS = frozenset(
    {
        "sorted",
        "sort",
        "min",
        "max",
        "heappush",
        "heappushpop",
        "heapreplace",
        "nlargest",
        "nsmallest",
        "insort",
        "insort_left",
        "insort_right",
    }
)

#: Functions whose return value is a ranking decision.
RANKING_FUNCTIONS = frozenset(
    {"sort_key", "key", "rank", "priority", "admit", "should_shed"}
)


class _BasisSpec(TaintSpec):
    """Sources: oracle attribute loads and ``getattr`` laundering."""

    def classify_attribute(self, node: ast.Attribute) -> frozenset[Label]:
        if node.attr not in ORACLE_ATTRS:
            return EMPTY
        if not isinstance(node.ctx, ast.Load):
            return EMPTY
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return EMPTY  # the policy's own attribute of the same name
        return frozenset({(node.attr, f"`.{node.attr}`", node.lineno)})

    def classify_call(self, node: ast.Call) -> frozenset[Label]:
        # getattr(x, "remaining") is the same oracle read without an
        # Attribute node — the classic RL008 blind spot.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in ORACLE_ATTRS
            and not (
                isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
            )
        ):
            attr = node.args[1].value
            return frozenset(
                {(attr, f'getattr(..., "{attr}")', node.lineno)}
            )
        return EMPTY


def _sources(labels: frozenset[Label]) -> str:
    parts = sorted({f"{desc} (line {line})" for _, desc, line in labels})
    return ", ".join(parts)


class BelievedBasisTaint(Rule):
    """RL010: no ground-truth-derived value may reach a decision site."""

    rule_id = "RL010"
    summary = (
        "no value derived from remaining (taint-tracked through locals, "
        "helpers, containers) reaches a policy decision site; rank by "
        "scheduling_remaining"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.in_package(*TAINT_SCOPES):
            return ()
        return list(self._check(module))

    def _check(self, module: ModuleContext) -> Iterator[Finding]:
        spec = _BasisSpec()
        summaries = summarize_module(module.tree, spec)
        seen: set[tuple[int, int]] = set()
        for func, _cls in iter_functions(module.tree):
            analysis = TaintAnalysis(func, spec, summaries)
            analysis.run()
            is_ranker = func.name in RANKING_FUNCTIONS
            for stmt, env in analysis.iter_states():
                if is_ranker and isinstance(stmt, ast.Return):
                    yield from self._check_return(
                        module, func, stmt, env, analysis, seen
                    )
                for expr in point_exprs(stmt):
                    yield from self._check_expr(
                        module, expr, env, analysis, seen
                    )

    # ------------------------------------------------------------------
    def _check_expr(
        self,
        module: ModuleContext,
        expr: ast.expr,
        env: Env,
        analysis: TaintAnalysis,
        seen: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Compare):
                # Identity/membership tests (`key is None`) are not
                # magnitude decisions; only ordering/equality ranks.
                if all(
                    isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn))
                    for op in node.ops
                ):
                    continue
                labels = analysis.eval(node, dict(env))
                if labels:
                    yield from self._emit(
                        module,
                        node,
                        seen,
                        "comparison on ground-truth basis: uses value "
                        f"derived from {_sources(labels)}",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_ranking_call(
                    module, node, env, analysis, seen
                )

    def _check_ranking_call(
        self,
        module: ModuleContext,
        node: ast.Call,
        env: Env,
        analysis: TaintAnalysis,
        seen: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        name = _call_name(node.func)
        if name not in RANKING_CALLS:
            return
        for arg in node.args:
            labels = analysis.eval(arg, dict(env))
            if labels:
                yield from self._emit(
                    module,
                    arg,
                    seen,
                    f"argument of ranking call `{name}(...)` is derived "
                    f"from {_sources(labels)}",
                )
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            labels = self._key_labels(kw.value, env, analysis)
            if labels:
                yield from self._emit(
                    module,
                    kw.value,
                    seen,
                    f"sort key of `{name}(...)` is derived from "
                    f"{_sources(labels)}",
                )

    def _key_labels(
        self, key: ast.expr, env: Env, analysis: TaintAnalysis
    ) -> frozenset[Label]:
        if isinstance(key, ast.Lambda):
            # Evaluate the body directly: parameters are unbound (their
            # elements' taint is unknown), but oracle sources inside the
            # body still classify.
            return analysis.eval(key.body, dict(env))
        if isinstance(key, ast.Name):
            summary = analysis.summaries.get(key.id)
        elif isinstance(key, ast.Attribute) and isinstance(
            key.value, ast.Name
        ) and key.value.id in ("self", "cls"):
            summary = analysis.summaries.get(key.attr)
        else:
            summary = None
        if summary is not None:
            return summary.own
        return analysis.eval(key, dict(env))

    def _check_return(
        self,
        module: ModuleContext,
        func: ast.AST,
        stmt: ast.Return,
        env: Env,
        analysis: TaintAnalysis,
        seen: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        if stmt.value is None:
            return
        labels = analysis.eval(stmt.value, dict(env))
        if labels:
            name = getattr(func, "name", "<function>")
            yield from self._emit(
                module,
                stmt,
                seen,
                f"ranking function `{name}` returns a value derived "
                f"from {_sources(labels)}",
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
            f"{what}; decisions must use `scheduling_remaining` (the "
            "estimate-based belief) — with inexact length estimates this "
            "flow is an oracle leak RL008 cannot see (§II-A)",
        )


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
