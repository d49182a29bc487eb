"""Self-check: the shipped source tree satisfies its own lint rules.

This is the in-repo mirror of the blocking CI job — if ``src/repro``
regresses on any rule, this test fails before the PR even reaches CI.
"""

from pathlib import Path

from repro.lint import lint

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
