"""Self-check: the shipped source tree satisfies its own lint rules.

This is the in-repo mirror of the blocking CI job — if ``src/repro``
regresses on any rule, this test fails before the PR even reaches CI.
"""

import ast
from pathlib import Path

from repro.ckpt import snapshot
from repro.lint import lint
from repro.lint.rules import policies, taint, timedim

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_exists_where_expected():
    assert (SRC / "sim" / "engine.py").is_file()


def test_src_repro_is_lint_clean():
    result = lint([SRC])
    assert result.findings == [], "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in result.findings
    )


def test_known_intentional_suppressions_are_counted():
    # event_queue batch identity, NonPreemptive scheduling-point identity,
    # and the ASETS* keep-in-place cached-heap-key identity check (a
    # re-key is skipped only when the recomputed key is
    # bitwise-identical).  ASETS is ASETS* over singletons and has none
    # of its own.
    result = lint([SRC])
    assert result.suppressed == 3


def _defined_names():
    """Attribute names ``src/repro`` defines: attribute stores,
    ``__slots__`` entries and function names."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets
            ):
                names.update(
                    leaf.value
                    for leaf in ast.walk(node.value)
                    if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                )
    return names


def test_every_guarded_attribute_exists():
    # A rule guarding a name the code no longer has guards nothing, and
    # says nothing about the name that replaced it.
    guarded = {
        "RL005 engine-owned": policies.ENGINE_OWNED_ATTRS,
        "RL005 lifecycle": policies.LIFECYCLE_METHODS,
        "RL005 internals": policies.ENGINE_INTERNALS,
        "RL008": policies.ORACLE_REMAINING_ATTRS,
        "RL010": taint.ORACLE_ATTRS,
        "RL011": timedim.SIM_ATTRS,
    }
    defined = _defined_names()
    stale = {
        rule: sorted(set(names) - defined)
        for rule, names in guarded.items()
        if set(names) - defined
    }
    assert stale == {}


def test_engine_owned_attrs_are_the_checkpointed_slots():
    assert policies.ENGINE_OWNED_ATTRS == frozenset(snapshot._TXN_SLOTS)
