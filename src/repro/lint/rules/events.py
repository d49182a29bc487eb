"""RL012 — static event-schema contracts.

The JSONL event log is the interface between the simulator and every
analysis tool; its schema-1 contract is now *declared* once, as the
``EVENT_SCHEMAS`` literal in :mod:`repro.obs.jsonl`.  This project rule
parses that literal statically (no imports — the registry is data) and
cross-checks three surfaces against it:

* **emit sites** — every dict literal carrying ``"kind": "<k>"`` inside
  ``repro.obs`` must name a registered kind, contain every required
  field of that kind (conditional ``record["f"] = ...`` additions in the
  same function count), and contain no undeclared field;
* **builder stores** — a function returning such a literal is a
  *builder* of its kind; ``x = builder(...)`` binds ``x`` to that kind,
  so every ``x["f"] = ...`` store in the same function must name a
  declared field of it;
* **consumers** — code under ``repro.obs.analyze`` that indexes or
  ``.get``\\ s event-record fields may only read fields some emitter can
  produce; reads are resolved against the kind(s) the enclosing
  ``if kind == "..."`` branch establishes, so a ``completion`` branch
  reading ``down`` is flagged even though ``down`` exists on crash
  records;
* **evolution** — schema 1 is additive-only: the rule carries the
  frozen baseline of required fields per kind, and a registry that
  drops a kind or demotes/removes a required field fails (adding
  optional fields or new kinds is fine).

The whole-registry checks only engage when the registry looks like the
real one (it declares ``run_start``), so toy fixtures can exercise the
mechanics with two-kind registries; the never-emitted check additionally
requires the records and streaming modules to be part of the lint run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.lint.engine import ModuleContext, ProjectContext, ProjectRule
from repro.lint.findings import Finding

__all__ = ["EventSchemaContracts"]

REGISTRY_MODULE = "repro.obs.jsonl"
EMIT_SCOPE = "repro.obs"
CONSUMER_SCOPE = "repro.obs.analyze"

#: Fields any record may carry regardless of kind: the envelope plus the
#: sampler's ``sampled`` stamp.
UNIVERSAL_FIELDS = frozenset({"kind", "t", "schema", "sampled"})

#: The frozen schema-1 baseline: required fields per kind at the moment
#: the registry was introduced.  Within schema 1 these can only grow
#: optional siblings — removing a kind or demoting a required field is a
#: breaking change and needs a schema bump, not a registry edit.
_SCHEMA1_BASELINE: dict[str, frozenset[str]] = {
    "run_start": frozenset({"schema", "kind", "t", "policy", "n", "servers"}),
    "arrival": frozenset({"kind", "t", "txn"}),
    "dispatch": frozenset({"kind", "t", "txn", "overhead"}),
    "preempt": frozenset({"kind", "t", "txn"}),
    "overhead": frozenset({"kind", "t", "txn", "amount"}),
    "completion": frozenset({"kind", "t", "txn", "tardiness"}),
    "sched": frozenset({"kind", "t", "ready", "running", "select_s"}),
    "fault.stall": frozenset({"kind", "t", "txn", "amount"}),
    "fault.abort": frozenset({"kind", "t", "txn", "lost", "attempt"}),
    "retry": frozenset({"kind", "t", "txn", "attempt", "deadline"}),
    "fault.crash": frozenset({"kind", "t", "down"}),
    "fault.recover": frozenset({"kind", "t", "down"}),
    "shed": frozenset({"kind", "t", "txn", "reason"}),
    "run_end": frozenset({"kind", "t", "completed", "tardy", "makespan"}),
    "window.snapshot": frozenset(
        {
            "kind",
            "t",
            "window",
            "start",
            "end",
            "arrivals",
            "completions",
            "tardy",
            "miss_rate",
            "throughput",
            "tardiness",
            "utilization",
            "queue_max",
            "queue_mean",
        }
    ),
    "manifest": frozenset(
        {"schema", "kind", "base", "parts", "records", "max_bytes"}
    ),
}


@dataclass(frozen=True)
class _Schema:
    required: frozenset[str]
    optional: frozenset[str]

    @property
    def all_fields(self) -> frozenset[str]:
        return self.required | self.optional


def _string_set(node: ast.expr) -> frozenset[str] | None:
    """Statically evaluate a literal set of strings, or None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
    ):
        if not node.args:
            return frozenset()
        if len(node.args) == 1:
            return _string_set(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: set[str] = set()
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            out.add(element.value)
        return frozenset(out)
    return None


def _parse_registry(
    module: ModuleContext,
) -> tuple[dict[str, _Schema], ast.AST] | None:
    """Extract the ``EVENT_SCHEMAS`` literal from the registry module."""
    for stmt in module.tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if (
            not isinstance(target, ast.Name)
            or target.id != "EVENT_SCHEMAS"
            or not isinstance(value, ast.Dict)
        ):
            continue
        registry: dict[str, _Schema] = {}
        for key, entry in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(entry, ast.Call)
            ):
                continue
            required: frozenset[str] | None = frozenset()
            optional: frozenset[str] | None = frozenset()
            args = list(entry.args)
            if args:
                required = _string_set(args[0])
            if len(args) > 1:
                optional = _string_set(args[1])
            for kw in entry.keywords:
                if kw.arg == "required":
                    required = _string_set(kw.value)
                elif kw.arg == "optional":
                    optional = _string_set(kw.value)
            if required is None or optional is None:
                continue
            registry[key.value] = _Schema(required, optional)
        return registry, stmt
    return None


# ----------------------------------------------------------------------
# Emit-site extraction.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _EmitSite:
    module: ModuleContext
    node: ast.Dict
    kind: str
    #: Constant-string keys of the literal plus same-function
    #: ``var["f"] = ...`` conditional additions.
    fields: frozenset[str]
    #: True when a non-constant key or ``**spread`` makes the literal's
    #: field set open-ended (undeclared-field check is skipped then).
    exact: bool


def _literal_kind(node: ast.Dict) -> str | None:
    for key, value in zip(node.keys, node.values):
        if (
            isinstance(key, ast.Constant)
            and key.value == "kind"
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return value.value
    return None


def _conditional_fields(
    module: ModuleContext, node: ast.Dict
) -> frozenset[str]:
    """Fields added as ``var["f"] = ...`` near the literal.

    The builder idiom is ``record = {...}`` followed by guarded
    subscript stores; any constant-string subscript store on the name
    the literal was assigned to, within the enclosing function (or the
    module, for module-level literals), counts as a conditional field.
    """
    parent = module.parents.get(node)
    var: str | None = None
    if isinstance(parent, ast.Assign):
        for target in parent.targets:
            if isinstance(target, ast.Name):
                var = target.id
    elif isinstance(parent, ast.AnnAssign) and isinstance(
        parent.target, ast.Name
    ):
        var = parent.target.id
    if var is None:
        return frozenset()
    scope: ast.AST = module.enclosing_function(node) or module.tree
    return frozenset(field for _, field in _stores(scope, var))


def _stores(scope: ast.AST, var: str) -> Iterator[tuple[ast.Assign, str]]:
    """``(statement, field)`` for each ``var["field"] = ...`` in scope."""
    for stmt in ast.walk(scope):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == var
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                yield stmt, target.slice.value


def _emit_sites(module: ModuleContext) -> Iterator[_EmitSite]:
    for node in module.walk():
        if not isinstance(node, ast.Dict):
            continue
        kind = _literal_kind(node)
        if kind is None:
            continue
        fields: set[str] = set()
        exact = True
        for key in node.keys:
            if key is None:  # **spread
                exact = False
            elif isinstance(key, ast.Constant) and isinstance(
                key.value, str
            ):
                fields.add(key.value)
            else:
                exact = False
        fields |= _conditional_fields(module, node)
        yield _EmitSite(module, node, kind, frozenset(fields), exact)


def _builders(module: ModuleContext) -> dict[str, str]:
    """Module-level functions building records of one kind: name -> kind."""
    out: dict[str, str] = {}
    for func in module.tree.body:
        if isinstance(func, ast.FunctionDef):
            kinds = {
                _literal_kind(node)
                for node in ast.walk(func)
                if isinstance(node, ast.Dict)
            } - {None}
            if len(kinds) == 1:
                out[func.name] = kinds.pop()
    return out


def _builder_stores(
    module: ModuleContext, builders: dict[str, str]
) -> Iterator[tuple[ast.Assign, str, str]]:
    """``(statement, builder, field)`` for each ``x["field"] = ...`` in
    a function that binds ``x = builder(...)``."""
    for func in module.walk():
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = node.value.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                for target in node.targets:
                    if name in builders and isinstance(target, ast.Name):
                        for stmt, field_name in _stores(func, target.id):
                            yield stmt, name, field_name


# ----------------------------------------------------------------------
# Consumer extraction.
# ----------------------------------------------------------------------
def _get_field(node: ast.expr) -> tuple[ast.expr, str] | None:
    """``(receiver, field)`` for ``x["f"]`` / ``x.get("f", ...)``."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ):
        return node.value, node.slice.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.func.value, node.args[0].value
    return None


def _record_and_kind_vars(
    func: ast.AST,
) -> tuple[frozenset[str], frozenset[str]]:
    """Names that hold event records / their ``kind`` strings.

    A *record var* is any name whose ``["kind"]``/``.get("kind")`` is
    accessed in ``func``; a *kind var* is any name assigned from such an
    access.
    """
    records: set[str] = set()
    for node in ast.walk(func):
        access = _get_field(node)
        if access is None:
            continue
        receiver, field_name = access
        if field_name == "kind" and isinstance(receiver, ast.Name):
            records.add(receiver.id)
    kinds: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        access = _get_field(node.value)
        if access is None:
            continue
        receiver, field_name = access
        if (
            field_name == "kind"
            and isinstance(receiver, ast.Name)
            and receiver.id in records
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    kinds.add(target.id)
    return frozenset(records), frozenset(kinds)


def _is_kind_expr(
    node: ast.expr, records: frozenset[str], kinds: frozenset[str]
) -> bool:
    if isinstance(node, ast.Name):
        return node.id in kinds
    access = _get_field(node)
    if access is not None:
        receiver, field_name = access
        return (
            field_name == "kind"
            and isinstance(receiver, ast.Name)
            and receiver.id in records
        )
    return False


def _kind_constants(node: ast.expr) -> frozenset[str] | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return frozenset({node.value})
    return _string_set(node)


def _test_kinds(
    test: ast.expr, records: frozenset[str], kinds: frozenset[str]
) -> frozenset[str] | None:
    """The kind set a branch test constrains records to, or None."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], (ast.Eq, ast.In)) and _is_kind_expr(
            test.left, records, kinds
        ):
            return _kind_constants(test.comparators[0])
        return None
    if isinstance(test, ast.BoolOp):
        out: set[str] = set()
        found = False
        for value in test.values:
            sub = _test_kinds(value, records, kinds)
            if sub is not None:
                found = True
                out |= sub
            elif isinstance(test.op, ast.Or):
                return None  # an un-analysed disjunct widens the set
        return frozenset(out) if found else None
    return None


def _branch_kinds(
    module: ModuleContext,
    node: ast.AST,
    records: frozenset[str],
    kinds: frozenset[str],
) -> frozenset[str] | None:
    """Kinds established by the innermost enclosing kind-test branch."""
    child: ast.AST = node
    for parent in module.ancestors(node):
        if isinstance(parent, ast.If) and child in parent.body:
            constrained = _test_kinds(parent.test, records, kinds)
            if constrained is not None:
                return constrained
        child = parent
    return None


# ----------------------------------------------------------------------
# The rule.
# ----------------------------------------------------------------------
class EventSchemaContracts(ProjectRule):
    """RL012: emit sites and consumers match the declared registry."""

    rule_id = "RL012"
    summary = (
        "every emit site and analyze consumer matches the EVENT_SCHEMAS "
        "registry; schema-1 evolution stays additive-only"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        registry_module = project.find(REGISTRY_MODULE)
        if registry_module is None:
            return ()
        parsed = _parse_registry(registry_module)
        if parsed is None:
            return [
                Finding(
                    path=str(registry_module.path),
                    line=1,
                    col=0,
                    rule=self.rule_id,
                    message=(
                        "repro.obs.jsonl defines no statically parseable "
                        "EVENT_SCHEMAS literal; RL012 cannot check the "
                        "event-schema contract"
                    ),
                )
            ]
        registry, registry_node = parsed
        findings = list(
            self._check_baseline(registry_module, registry_node, registry)
        )
        emitted: set[str] = set()
        have_emitters = True
        emitters = [
            module
            for module in project.modules
            if module.in_package(EMIT_SCOPE)
            and not module.in_package(CONSUMER_SCOPE)
        ]
        builders: dict[str, str] = {}
        for module in emitters:
            builders.update(_builders(module))
        for module in project.modules:
            if module in emitters:
                for site in _emit_sites(module):
                    emitted.add(site.kind)
                    findings.extend(self._check_emit(site, registry))
                findings.extend(self._check_stores(module, builders, registry))
            if module.in_package(CONSUMER_SCOPE):
                findings.extend(self._check_consumers(module, registry))
        for name in (f"{EMIT_SCOPE}.records", f"{EMIT_SCOPE}.streaming"):
            if project.find(name) is None:
                have_emitters = False
        if have_emitters:
            for kind in sorted(set(registry) - emitted):
                findings.append(
                    Finding(
                        path=str(registry_module.path),
                        line=registry_node.lineno,
                        col=registry_node.col_offset,
                        rule=self.rule_id,
                        message=(
                            f"registered kind '{kind}' has no emit site "
                            "in repro.obs — dead schema entries hide "
                            "drift; remove it or emit it"
                        ),
                    )
                )
        return findings

    # ------------------------------------------------------------------
    def _check_baseline(
        self,
        module: ModuleContext,
        node: ast.AST,
        registry: dict[str, _Schema],
    ) -> Iterator[Finding]:
        if "run_start" not in registry:
            return  # toy registry (fixtures): skip evolution checks
        for kind, baseline_required in sorted(_SCHEMA1_BASELINE.items()):
            schema = registry.get(kind)
            if schema is None:
                yield Finding(
                    path=str(module.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.rule_id,
                    message=(
                        f"schema-1 kind '{kind}' was removed from "
                        "EVENT_SCHEMAS; schema 1 is additive-only — "
                        "removing a kind needs a schema-version bump"
                    ),
                )
                continue
            missing = baseline_required - schema.required
            if missing:
                yield Finding(
                    path=str(module.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.rule_id,
                    message=(
                        f"kind '{kind}' no longer requires "
                        f"{sorted(missing)}; schema 1 is additive-only — "
                        "required fields cannot be removed or demoted"
                    ),
                )

    def _check_emit(
        self, site: _EmitSite, registry: dict[str, _Schema]
    ) -> Iterator[Finding]:
        schema = registry.get(site.kind)
        if schema is None:
            yield self.finding(
                site.module,
                site.node,
                f"emit of unregistered event kind '{site.kind}'; declare "
                "it in EVENT_SCHEMAS (repro.obs.jsonl) first",
            )
            return
        missing = schema.required - site.fields - UNIVERSAL_FIELDS
        if missing:
            yield self.finding(
                site.module,
                site.node,
                f"emit of '{site.kind}' lacks required field(s) "
                f"{sorted(missing)} declared in EVENT_SCHEMAS",
            )
        if site.exact:
            undeclared = site.fields - schema.all_fields - UNIVERSAL_FIELDS
            if undeclared:
                yield self.finding(
                    site.module,
                    site.node,
                    f"emit of '{site.kind}' carries undeclared field(s) "
                    f"{sorted(undeclared)}; add them to EVENT_SCHEMAS "
                    "(additive) or drop them",
                )

    def _check_stores(
        self,
        module: ModuleContext,
        builders: dict[str, str],
        registry: dict[str, _Schema],
    ) -> Iterator[Finding]:
        for node, builder, field_name in _builder_stores(module, builders):
            kind = builders[builder]
            schema = registry.get(kind)  # unregistered: flagged at the literal
            if schema and field_name not in schema.all_fields | UNIVERSAL_FIELDS:
                yield self.finding(
                    module,
                    node,
                    f"store of undeclared field '{field_name}' on the "
                    f"'{kind}' record {builder}() builds; add it to "
                    "EVENT_SCHEMAS (additive) or drop it",
                )

    def _check_consumers(
        self, module: ModuleContext, registry: dict[str, _Schema]
    ) -> Iterator[Finding]:
        every_field = UNIVERSAL_FIELDS.union(
            *(s.all_fields for s in registry.values())
        ) if registry else UNIVERSAL_FIELDS
        for func in module.walk():
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            records, kind_vars = _record_and_kind_vars(func)
            if not records:
                continue
            for node in ast.walk(func):
                access = _get_field(node)
                if access is None:
                    continue
                receiver, field_name = access
                if not (
                    isinstance(receiver, ast.Name)
                    and receiver.id in records
                ):
                    continue
                if field_name in UNIVERSAL_FIELDS:
                    continue
                branch = _branch_kinds(module, node, records, kind_vars)
                if branch is not None:
                    known = {k for k in branch if k in registry}
                    if not known:
                        continue  # branch on kinds the registry ignores
                    if any(
                        field_name in registry[k].all_fields for k in known
                    ):
                        continue
                    yield self.finding(
                        module,
                        node,
                        f"consumer reads field '{field_name}' in a "
                        f"branch handling kind(s) {sorted(known)}, but "
                        "no emitter of those kinds produces it (per "
                        "EVENT_SCHEMAS)",
                    )
                elif field_name not in every_field:
                    yield self.finding(
                        module,
                        node,
                        f"consumer reads field '{field_name}' which no "
                        "registered event kind produces (per "
                        "EVENT_SCHEMAS)",
                    )
