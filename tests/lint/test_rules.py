"""Every rule RL001..RL012: one passing, one failing, one suppressed fixture.

Fixture snippets live under ``tests/lint/fixtures/<rule>/{good,bad,...}``
in a ``repro/...`` directory layout, so the engine derives in-scope module
names (``repro.sim.clock`` etc.) from the paths alone — the same way the
real tree is linted.  The RL012 fixtures are small multi-module projects
(registry + emitters + consumers), since the rule is cross-module.
"""

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.rules import ALL_RULES, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"

ALL_IDS = [f"RL00{i}" for i in range(1, 10)] + ["RL010", "RL011", "RL012"]


def findings_for(rule_id, subdir):
    return run_lint([FIXTURES / rule_id.lower() / subdir], select=[rule_id])


def test_rule_catalog_is_complete_and_ordered():
    assert [rule.rule_id for rule in ALL_RULES] == ALL_IDS
    assert set(rules_by_id()) == set(ALL_IDS)
    assert all(rule.summary for rule in ALL_RULES)


@pytest.mark.parametrize("rule_id", ALL_IDS)
def test_good_fixture_is_clean(rule_id):
    assert findings_for(rule_id, "good") == []


@pytest.mark.parametrize("rule_id", ALL_IDS)
def test_bad_fixture_fails_with_line_numbers(rule_id):
    findings = findings_for(rule_id, "bad")
    assert findings, f"{rule_id} bad fixture produced no findings"
    assert all(f.rule == rule_id for f in findings)
    assert all(f.line >= 1 for f in findings)


class TestRL001:
    def test_flags_every_entropy_source(self):
        findings = findings_for("RL001", "bad")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 4
        assert "random.random" in messages
        assert "time.time" in messages
        assert "datetime.datetime.now" in messages
        assert "os.urandom" in messages

    def test_suppressed_fixture_is_clean(self):
        assert findings_for("RL001", "suppressed") == []

    def test_unguarded_perf_counter_in_engine_module(self):
        findings = findings_for("RL001", "bad_engine")
        assert len(findings) == 2  # two unguarded perf_counter reads
        assert all("perf_counter" in f.message for f in findings)

    def test_guarded_perf_counter_in_engine_module_is_clean(self):
        assert findings_for("RL001", "good_engine") == []

    def test_unguarded_perf_counter_in_profile_module(self):
        findings = findings_for("RL001", "bad_profile")
        assert len(findings) == 2  # two unguarded perf_counter reads
        assert all("perf_counter" in f.message for f in findings)
        assert any("enabled" in f.message for f in findings)

    def test_enabled_guarded_perf_counter_in_profile_module_is_clean(self):
        assert findings_for("RL001", "good_profile") == []

    def test_perf_counter_import_outside_engine_module(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "helper.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("__all__ = []\nfrom time import perf_counter\n")
        findings = run_lint([mod], select=["RL001"])
        assert len(findings) == 1
        assert "only be imported" in findings[0].message


class TestRL002:
    def test_flags_all_three_iteration_shapes(self):
        findings = findings_for("RL002", "bad")
        assert len(findings) == 3  # for-loop, list(), comprehension

    def test_suppressed_fixture_is_clean(self):
        assert findings_for("RL002", "suppressed") == []


class TestRL003:
    def test_flags_both_comparisons(self):
        findings = findings_for("RL003", "bad")
        assert len(findings) == 2
        assert any("now" in f.message for f in findings)

    def test_suppressed_fixture_is_clean(self):
        assert findings_for("RL003", "suppressed") == []


class TestRL004:
    def test_bad_scheduler_breaks_all_four_clauses(self):
        findings = findings_for("RL004", "bad")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 4
        assert "never sets `name`" in messages
        assert "`on_ready`" in messages
        assert "`select`" in messages
        assert "not referenced" in messages

    def test_registration_check_skipped_without_registry(self, tmp_path):
        target = tmp_path / "repro" / "policies" / "lonely.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "__all__ = []\n"
            "from repro.policies.base import HeapScheduler\n"
            "class Lonely(HeapScheduler):\n"
            "    name = 'lonely'\n"
            "    def key(self, txn):\n"
            "        return txn.deadline\n"
        )
        assert run_lint([target], select=["RL004"]) == []


class TestRL005:
    def test_flags_writes_calls_and_internals(self):
        findings = findings_for("RL005", "bad")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 4
        assert "`state`" in messages
        assert "`remaining`" in messages
        assert "mark_completed" in messages
        assert "_events" in messages

    def test_flags_a_write_to_the_belief(self):
        # The engine decays scheduling_remaining as work is charged; a
        # policy rewriting it changes every other policy's view.
        findings = findings_for("RL005", "bad_belief")
        assert len(findings) == 1
        assert "`scheduling_remaining`" in findings[0].message

    def test_flags_writes_to_every_slot_a_run_changes(self, tmp_path):
        # A retry moves the deadline and counts the attempt; both are the
        # engine's, like the preemption count.
        mod = tmp_path / "repro" / "policies" / "rogue.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "__all__ = []\n"
            "def tamper(txn):\n"
            "    txn.deadline = 0.0\n"
            "    txn.retries = 0\n"
            "    txn.attempt_served = 0.0\n"
            "    txn.preemptions = 0\n"
        )
        findings = run_lint([mod], select=["RL005"])
        assert [f.line for f in findings] == [3, 4, 5, 6]


class TestRL006:
    def test_unguarded_hook_names_the_hook(self):
        findings = findings_for("RL006", "bad")
        assert len(findings) == 1
        assert "on_completion" in findings[0].message


class TestRL007:
    def test_private_modules_are_exempt(self):
        # The good dir contains _private.py without __all__ on purpose.
        assert findings_for("RL007", "good") == []


class TestRL008:
    def test_flags_the_pre_fix_asets_star_reads(self):
        findings = findings_for("RL008", "bad")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3  # feasibility, density, raw truth
        assert all("`remaining`" in f.message for f in findings)
        assert "oracle leak" in messages

    def test_self_attribute_of_same_name_is_fine(self):
        assert findings_for("RL008", "good") == []

    def test_suppressed_fixture_is_clean(self):
        assert findings_for("RL008", "suppressed") == []

    def test_flags_reintroduced_ground_truth_feasibility(self, tmp_path):
        # The acceptance check: the exact pre-fix ASETS* line, brought
        # back, must trip the rule.
        mod = tmp_path / "repro" / "policies" / "asets_star.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "__all__ = []\n"
            "def select(rep, now):\n"
            "    if now + rep.remaining <= rep.deadline:\n"
            "        return rep\n"
            "    return None\n"
        )
        findings = run_lint([mod], select=["RL008"])
        assert len(findings) == 1
        assert findings[0].line == 3


class TestRL009:
    def test_flags_inline_and_comment_line_pragmas(self):
        findings = findings_for("RL009", "bad")
        assert len(findings) == 2
        assert all("reason" in f.message for f in findings)
        # Findings anchor on the pragma's own line.
        assert [f.line for f in findings] == [7, 10]

    def test_reasoned_pragmas_are_clean(self):
        assert findings_for("RL009", "good") == []


class TestRL010:
    def test_flags_exactly_the_three_pre_fix_leak_sites(self):
        findings = findings_for("RL010", "bad")
        lines = sorted(f.line for f in findings)
        # Feasibility test (laundered through getattr + a local),
        # cached-key comparison fed by the density local, and the
        # hdf_list sort key lambda.
        assert lines == [20, 27, 36]
        messages = "\n".join(f.message for f in findings)
        assert "scheduling_remaining" in messages
        assert 'getattr(..., "remaining")' in messages
        assert "`.remaining`" in messages

    def test_rl008_misses_the_laundered_feasibility_site(self):
        # The point of the upgrade: RL008 sees no ast.Attribute load on
        # the getattr line or the comparison it feeds.
        bad = FIXTURES / "rl010" / "bad"
        rl008_lines = {f.line for f in run_lint([bad], select=["RL008"])}
        assert 19 not in rl008_lines and 20 not in rl008_lines
        rl010_lines = {f.line for f in run_lint([bad], select=["RL010"])}
        assert 20 in rl010_lines

    def test_belief_basis_flows_are_clean(self):
        # scheduling_remaining through locals, helpers and tuples.
        assert findings_for("RL010", "good") == []

    def test_suppressed_fixture_is_clean(self):
        assert findings_for("RL010", "suppressed") == []


class TestRL011:
    def test_flags_arithmetic_comparison_and_hook_crossing(self):
        findings = findings_for("RL011", "bad")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        assert "arithmetic mixes time dimensions" in messages
        assert "comparison mixes time dimensions" in messages
        assert "sim-time parameter" in messages

    def test_wall_clock_now_into_the_ordering_predicates_is_flagged(self):
        findings = findings_for("RL011", "bad_predicate")
        assert [f.line for f in findings] == [12, 16]
        assert "sim-time parameter `now` of `feasible_at(...)`" in (
            findings[0].message
        )
        assert "sim-time parameter of `slack(...)`" in findings[1].message

    def test_rates_and_same_dimension_arithmetic_are_clean(self):
        assert findings_for("RL011", "good") == []

    def test_suppressed_fixture_is_clean(self):
        assert findings_for("RL011", "suppressed") == []


class TestRL012:
    def test_flags_every_drift_shape(self):
        findings = findings_for("RL012", "bad")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 6
        assert "unregistered event kind 'mystery'" in messages
        assert "lacks required field(s) ['val']" in messages
        assert "undeclared field(s) ['payload']" in messages
        assert "'ghost' has no emit site" in messages
        assert "reads field 'val' in a branch handling kind(s) ['ping']" in messages
        assert "reads field 'bogus'" in messages

    def test_conforming_project_is_clean(self):
        assert findings_for("RL012", "good") == []

    def test_stores_on_a_builders_record_are_checked(self):
        # ``x = builder(...)`` binds ``x`` to the builder's kind, so a
        # later ``x["f"] = ...`` must name a declared field of it.
        findings = findings_for("RL012", "bad_builder")
        assert sorted((f.line, f.message) for f in findings) == [
            (
                13,
                "store of undeclared field 'extra' on the 'pong' record "
                "pong_record() builds; add it to EVENT_SCHEMAS (additive) "
                "or drop it",
            ),
            (
                19,
                "store of undeclared field 'width' on the 'ping' record "
                "ping_record() builds; add it to EVENT_SCHEMAS (additive) "
                "or drop it",
            ),
        ]

    def test_suppressed_fixture_is_clean(self):
        assert findings_for("RL012", "suppressed") == []

    def test_registry_drift_on_the_real_tree_fails(self, tmp_path):
        # Acceptance: demoting a required schema-1 field in the real
        # registry module must produce a finding even with no other
        # repro.obs modules in the run.
        import re

        src = Path("src/repro/obs/jsonl.py").read_text(encoding="utf-8")
        drifted = src.replace(
            'required=frozenset({"kind", "t", "txn", "tardiness"}),',
            'required=frozenset({"kind", "t", "txn"}),',
        )
        assert drifted != src
        mod = tmp_path / "repro" / "obs" / "jsonl.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(drifted, encoding="utf-8")
        findings = run_lint([mod], select=["RL012"])
        assert any(
            re.search(r"'completion' no longer requires.*tardiness", f.message)
            for f in findings
        )
