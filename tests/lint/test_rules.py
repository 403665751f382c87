"""Tests for the static lint pass (`repro lint`, rules LNT001-LNT005).

Rule behaviour is tested on synthetic source strings; the final test
asserts the real tree lints clean (the CI contract).
"""

from __future__ import annotations

import importlib
import textwrap

import pytest

from repro.lint import (ANALYZE, DEFAULT_LINT_PATHS, LINT, RULE_REGISTRY,
                        SourceFile, lint_files, lint_paths, rule_catalogue)


def lint_source(source: str, select=None):
    file = SourceFile("synthetic.py", textwrap.dedent(source))
    return lint_files([file], select=select)


def codes(violations):
    return [violation.code for violation in violations]


class TestRawFlushWithoutFence:
    def test_unfenced_clflush_is_flagged(self):
        violations = lint_source("""
            def commit(self):
                self.memory.clflush(addr, size)
            """)
        assert codes(violations) == ["LNT001"]
        assert "sfence" in violations[0].message

    def test_clwb_is_also_flagged(self):
        violations = lint_source("""
            def commit(self):
                self.memory.clwb(addr, size)
            """)
        assert codes(violations) == ["LNT001"]

    def test_fence_in_same_function_passes(self):
        assert lint_source("""
            def sync(self, addr, size):
                self.clflush(addr, size)
                self.sfence()
            """) == []

    def test_facade_wrappers_are_exempt(self):
        # NVMMemory.clflush forwards to the cache layer by design.
        assert lint_source("""
            def clflush(self, addr, size):
                self._cache.clflush(addr, size)
            """) == []

    def test_nested_function_fence_does_not_count(self):
        violations = lint_source("""
            def commit(self):
                self.memory.clflush(addr, size)
                def helper():
                    self.memory.sfence()
            """)
        assert codes(violations) == ["LNT001"]


class TestFaultPointRegistry:
    def test_unregistered_fire_is_flagged(self):
        violations = lint_source("""
            def commit(self):
                self.faults.fire("engine.commit.before")
            """, select=["LNT002"])
        assert codes(violations) == ["LNT002"]
        assert "engine.commit.before" in violations[0].message

    def test_registered_but_never_fired_is_flagged(self):
        violations = lint_source("""
            register_fault_point("engine.commit.before", "desc")
            """, select=["LNT003"])
        assert codes(violations) == ["LNT003"]

    def test_matched_pair_passes(self):
        assert lint_source("""
            register_fault_point("engine.commit.before", "desc")
            def commit(self):
                self.faults.fire("engine.commit.before")
            """, select=["LNT002", "LNT003"]) == []

    def test_cross_file_matching(self):
        registry = SourceFile("registry.py", textwrap.dedent("""
            register_fault_point("a.b", "desc")
            """))
        engine = SourceFile("engine.py", textwrap.dedent("""
            def go(self):
                self.faults.fire("a.b")
            """))
        assert lint_files([registry, engine],
                          select=["LNT002", "LNT003"]) == []

    def test_non_literal_fire_is_ignored(self):
        assert lint_source("""
            def go(self, name):
                self.faults.fire(name)
            """, select=["LNT002"]) == []


class TestEngineOptionsKeywordOnly:
    def test_positional_option_is_flagged(self):
        violations = lint_source("""
            @register_engine
            class FancyEngine:
                def __init__(self, platform, config, cache_lines):
                    pass
            """)
        assert codes(violations) == ["LNT004"]
        assert "cache_lines" in violations[0].message

    def test_keyword_only_option_passes(self):
        assert lint_source("""
            @register_engine
            class FancyEngine:
                def __init__(self, platform, config, *, cache_lines=4):
                    pass
            """) == []

    def test_undecorated_class_is_not_an_engine(self):
        assert lint_source("""
            class Helper:
                def __init__(self, platform, config, extra):
                    pass
            """, select=["LNT004"]) == []


class TestMissingSlots:
    def test_bare_value_class_is_flagged(self):
        violations = lint_source("""
            class _Table:
                def __init__(self, schema):
                    self.schema = schema
                    self.rows = {}
            """)
        assert codes(violations) == ["LNT005"]

    def test_slots_satisfy_the_rule(self):
        assert lint_source("""
            class _Table:
                __slots__ = ("schema", "rows")
                def __init__(self, schema):
                    self.schema = schema
                    self.rows = {}
            """) == []

    def test_classes_with_behaviour_are_exempt(self):
        assert lint_source("""
            class Pool:
                def __init__(self):
                    self.items = []
                def take(self):
                    return self.items.pop()
            """, select=["LNT005"]) == []

    def test_decorated_classes_are_exempt(self):
        assert lint_source("""
            @dataclass
            class Point:
                def __init__(self):
                    self.x = 0
            """, select=["LNT005"]) == []

    def test_subclasses_are_exempt(self):
        assert lint_source("""
            class Special(Base):
                def __init__(self):
                    self.x = 0
            """, select=["LNT005"]) == []


class TestFrameworkPlumbing:
    def test_noqa_bare_waives_all_codes(self):
        assert lint_source("""
            def commit(self):
                self.memory.clflush(addr, size)  # noqa
            """) == []

    def test_noqa_with_matching_code_waives(self):
        assert lint_source("""
            def commit(self):
                self.memory.clflush(addr, size)  # noqa: LNT001
            """) == []

    def test_noqa_with_other_code_does_not_waive(self):
        violations = lint_source("""
            def commit(self):
                self.memory.clflush(addr, size)  # noqa: LNT005
            """)
        assert codes(violations) == ["LNT001"]

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule codes"):
            lint_source("x = 1", select=["LNT999"])

    def test_violations_sorted_and_serializable(self):
        violations = lint_source("""
            class _B:
                def __init__(self):
                    self.x = 0
            class _A:
                def __init__(self):
                    self.y = 0
            """)
        assert codes(violations) == ["LNT005", "LNT005"]
        lines = [violation.line for violation in violations]
        assert lines == sorted(lines)
        payload = violations[0].to_dict()
        assert payload["code"] == "LNT005"
        assert "synthetic.py" in str(violations[0])

    def test_rule_catalogue_matches_registry(self):
        lint_codes = {code for code in RULE_REGISTRY
                      if code.startswith(LINT)}
        assert set(rule_catalogue(LINT)) == lint_codes
        assert sorted(rule_catalogue(LINT)) == ["LNT001", "LNT002",
                                                "LNT003", "LNT004",
                                                "LNT005"]

    def test_every_rule_belongs_to_exactly_one_family(self):
        # A rule outside both families would be registered but run by
        # neither `repro lint` nor `repro analyze`.
        importlib.import_module("repro.analysis.static")
        assert not any(lint.startswith(analyze) or analyze.startswith(lint)
                       for lint in LINT for analyze in ANALYZE)
        for code in RULE_REGISTRY:
            assert sum(code.startswith(family)
                       for family in (LINT, ANALYZE)) == 1, code


def test_project_tree_lints_clean():
    """The CI contract: engines, nvm, and fault packages have zero
    findings (fixes and waivers are part of the source tree)."""
    assert lint_paths(DEFAULT_LINT_PATHS) == []
