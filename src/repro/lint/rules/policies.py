"""RL004/RL005 — the policy layer's contract with the engine.

RL004: every *concrete* :class:`~repro.policies.base.Scheduler` subclass
must (a) set :attr:`name` (a class attribute, or ``self.name = ...`` in
``__init__`` for wrappers deriving it), (b) implement or inherit concrete
``on_ready`` and ``select``, and (c) be registered in
``repro.policies.registry`` so experiment configs can construct it by
name.  A policy that drifts from this contract still imports fine and may
even pass targeted unit tests, but silently disappears from the
experiment grid — exactly the code/contract drift the reproduction
cannot afford.  The rule resolves subclasses transitively from the three
base classes (``Scheduler``, ``ScanScheduler``, ``HeapScheduler``),
treats any class declaring ``abstractmethod``s as abstract, and skips the
registration check when the registry module is not part of the lint run
(single-file fixture checks).

RL005: policies *observe* transactions and *rank* them; the engine alone
moves them through their lifecycle.  Inside ``repro.policies``, writes to
engine-owned :class:`~repro.core.transaction.Transaction` fields
(``state``, ``remaining``, ``finish_time``, ...), calls to lifecycle
methods (``mark_*``, ``charge``, ``reset``), and any touch of engine
internals (``_events``, ``_running``, ``_pending_deps``) are contract
violations — the engine's accounting would desynchronise from the
transcript and the run would no longer replay.

RL008: policies rank by the scheduler's *belief*, never the engine's
ground truth.  ``remaining`` is the true remaining processing time the
engine charges against; policy code reading it is an oracle leak: with
inexact length estimates
(``WorkloadSpec.length_estimate_error > 0``) the policy would rank by
information the system cannot have (§II-A), silently inflating its
results.  The leak is invisible under the default exact estimates —
belief and truth coincide, every test stays green — which is exactly why
it needs a static rule.  Use ``scheduling_remaining`` (also available on
:class:`~repro.core.workflow.RepresentativeView`) instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.ckpt.snapshot import _TXN_SLOTS
from repro.lint.engine import ModuleContext, ProjectContext, ProjectRule, Rule
from repro.lint.findings import Finding

__all__ = [
    "NoEngineStateMutation",
    "NoOracleRemainingRead",
    "SchedulerContract",
]

POLICIES_PACKAGE = "repro.policies"
REGISTRY_MODULE = "repro.policies.registry"

#: Base classes rooted in ``repro.policies.base``.  ``Scheduler`` leaves
#: ``on_ready``/``select`` abstract; the two workhorse bases implement
#: both (subclasses supply ``sort_key``/``key`` instead).
ROOT_BASES = {
    "Scheduler": frozenset(),
    "ScanScheduler": frozenset({"on_ready", "select"}),
    "HeapScheduler": frozenset({"on_ready", "select"}),
}

REQUIRED_METHODS = ("on_ready", "select")

#: Transaction fields only the engine may write: the slots a run
#: changes, one list shared with the checkpoint, which writes exactly
#: these at every save.
ENGINE_OWNED_ATTRS = frozenset(_TXN_SLOTS)

#: Transaction lifecycle methods only the engine may call.
LIFECYCLE_METHODS = {
    "mark_waiting",
    "mark_ready",
    "mark_running",
    "mark_suspended",
    "mark_preempted",
    "mark_completed",
    "charge",
    "reset",
}

#: Private engine attributes policies must never reach into.
ENGINE_INTERNALS = {"_events", "_running", "_pending_deps"}

#: Ground-truth remaining-time attributes policies must never *read*
#: (RL008); ``scheduling_remaining`` is the sanctioned accessor.
ORACLE_REMAINING_ATTRS = {"remaining"}


@dataclass
class _ClassInfo:
    name: str
    module: ModuleContext
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: set[str] = field(default_factory=set)
    abstract_methods: set[str] = field(default_factory=set)
    sets_name: bool = False


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_abstract_decorator(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in ("abstractmethod", "abstractproperty")
    if isinstance(expr, ast.Attribute):
        return expr.attr in ("abstractmethod", "abstractproperty")
    return False


def _collect_class(module: ModuleContext, node: ast.ClassDef) -> _ClassInfo:
    info = _ClassInfo(name=node.name, module=module, node=node)
    for base in node.bases:
        name = _base_name(base)
        if name is not None:
            info.bases.append(name)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_abstract_decorator(d) for d in stmt.decorator_list):
                info.abstract_methods.add(stmt.name)
            else:
                info.methods.add(stmt.name)
            if stmt.name == "__init__":
                info.sets_name |= _init_sets_name(stmt)
        elif isinstance(stmt, ast.Assign):
            info.sets_name |= any(
                isinstance(t, ast.Name) and t.id == "name"
                for t in stmt.targets
            )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            info.sets_name |= (
                isinstance(stmt.target, ast.Name) and stmt.target.id == "name"
            )
    return info


def _init_sets_name(init: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "name"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
    return False


class SchedulerContract(ProjectRule):
    """RL004: concrete schedulers set ``name``, hook in, and register."""

    rule_id = "RL004"
    summary = (
        "every concrete Scheduler subclass sets name, implements "
        "on_ready/select, and appears in policies/registry.py"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        classes: dict[str, _ClassInfo] = {}
        for module in project.modules:
            if not module.in_package(POLICIES_PACKAGE):
                continue
            for node in module.walk():
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = _collect_class(module, node)
        registry = project.find(REGISTRY_MODULE)
        registered = (
            _referenced_names(registry) if registry is not None else None
        )
        findings: list[Finding] = []
        for info in classes.values():
            if info.name in ROOT_BASES or info.name.startswith("_"):
                continue
            if not self._is_scheduler(info, classes):
                continue
            if info.abstract_methods:
                continue  # abstract intermediates are not registrable
            findings.extend(self._check_concrete(info, classes, registered))
        return findings

    def _is_scheduler(
        self,
        info: _ClassInfo,
        classes: dict[str, _ClassInfo],
        _seen: frozenset[str] = frozenset(),
    ) -> bool:
        if info.name in _seen:
            return False
        for base in info.bases:
            if base in ROOT_BASES:
                return True
            parent = classes.get(base)
            if parent is not None and self._is_scheduler(
                parent, classes, _seen | {info.name}
            ):
                return True
        return False

    def _provides(
        self,
        info: _ClassInfo,
        method: str,
        classes: dict[str, _ClassInfo],
        _seen: frozenset[str] = frozenset(),
    ) -> bool:
        if info.name in _seen:
            return False
        if method in info.methods:
            return True
        if method in info.abstract_methods:
            return False
        for base in info.bases:
            if base in ROOT_BASES and method in ROOT_BASES[base]:
                return True
            parent = classes.get(base)
            if parent is not None and self._provides(
                parent, method, classes, _seen | {info.name}
            ):
                return True
        return False

    def _inherits_name(
        self,
        info: _ClassInfo,
        classes: dict[str, _ClassInfo],
        _seen: frozenset[str] = frozenset(),
    ) -> bool:
        if info.name in _seen:
            return False
        if info.sets_name:
            return True
        # The roots' own ``name = "abstract"`` sentinel never counts.
        for base in info.bases:
            parent = classes.get(base)
            if (
                parent is not None
                and parent.name not in ROOT_BASES
                and self._inherits_name(parent, classes, _seen | {info.name})
            ):
                return True
        return False

    def _check_concrete(
        self,
        info: _ClassInfo,
        classes: dict[str, _ClassInfo],
        registered: set[str] | None,
    ) -> Iterator[Finding]:
        if not self._inherits_name(info, classes):
            yield self.finding(
                info.module,
                info.node,
                f"concrete scheduler `{info.name}` never sets `name` (class "
                "attribute or self.name in __init__); the registry and all "
                "result records identify policies by it",
            )
        for method in REQUIRED_METHODS:
            if not self._provides(info, method, classes):
                yield self.finding(
                    info.module,
                    info.node,
                    f"concrete scheduler `{info.name}` neither implements "
                    f"nor inherits a concrete `{method}`; the engine "
                    "contract (repro.policies.base) requires it",
                )
        if registered is not None and info.name not in registered:
            yield self.finding(
                info.module,
                info.node,
                f"concrete scheduler `{info.name}` is not referenced by "
                f"{REGISTRY_MODULE}; register it in _FACTORIES so "
                "experiments can construct it by name",
            )


def _referenced_names(module: ModuleContext) -> set[str]:
    names: set[str] = set()
    for node in module.walk():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[-1])
    return names


class NoEngineStateMutation(Rule):
    """RL005: policies never mutate engine-owned state."""

    rule_id = "RL005"
    summary = (
        "no writes to Transaction lifecycle state, lifecycle-method calls, "
        "or engine internals from repro.policies"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.in_package(POLICIES_PACKAGE):
            return ()
        return list(self._check(module))

    def _check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_write(module, target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    yield from self._check_write(module, target)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.Attribute):
                if node.attr in ENGINE_INTERNALS:
                    yield self.finding(
                        module,
                        node,
                        f"access to engine-internal `{node.attr}`: policies "
                        "interact with the run only through the Scheduler "
                        "hooks",
                    )

    def _check_write(
        self, module: ModuleContext, target: ast.expr
    ) -> Iterator[Finding]:
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in ENGINE_OWNED_ATTRS:
            return
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return  # the policy's own attribute of the same name
        yield self.finding(
            module,
            target,
            f"write to engine-owned `{target.attr}`: only the engine moves "
            "transactions through their lifecycle (the run could no longer "
            "replay deterministically)",
        )

    def _check_call(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in LIFECYCLE_METHODS:
            return
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            return  # the policy's own method of the same name
        yield self.finding(
            module,
            func,
            f"call to lifecycle method `{func.attr}()`: transaction state "
            "transitions belong to the engine, not the policy",
        )


class NoOracleRemainingRead(Rule):
    """RL008: policies read ``scheduling_remaining``, never ground truth."""

    rule_id = "RL008"
    summary = (
        "no reads of Transaction.remaining from repro.policies; rank by "
        "scheduling_remaining (the belief)"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.in_package(POLICIES_PACKAGE):
            return ()
        return list(self._check(module))

    def _check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in ORACLE_REMAINING_ATTRS:
                continue
            if not isinstance(node.ctx, ast.Load):
                continue  # writes are RL005's finding, not a second one
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue  # the policy's own attribute of the same name
            yield self.finding(
                module,
                node,
                f"read of ground-truth `{node.attr}`: policies must rank by "
                "`scheduling_remaining` (the estimate-based belief) — with "
                "inexact length estimates this read is an oracle leak "
                "(§II-A)",
            )
