"""SDA001-SDA004 fixtures: one violating and one clean path each."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.static import analyze_project
from repro.analysis.static.callgraph import Project
from repro.lint.framework import SourceFile


def project_of(*sources: str) -> Project:
    return Project([SourceFile(f"mod{i}.py", textwrap.dedent(src))
                    for i, src in enumerate(sources)])


def codes(*sources: str, select=None):
    return [violation.code
            for violation in analyze_project(project_of(*sources),
                                             select=select)]


class TestSDA001StoreReachesMarker:
    def test_unsynced_store_fires(self):
        assert "SDA001" in codes("""
            def commit(memory):
                memory.store_u64(0, 1)
                memory.atomic_durable_store_u64(8, 2)
            """, select=["SDA001"])

    def test_synced_store_is_clean(self):
        assert codes("""
            def commit(memory):
                memory.store_u64(0, 1)
                memory.sync(0, 8)
                memory.atomic_durable_store_u64(8, 2)
            """, select=["SDA001"]) == []

    def test_one_dirty_branch_fires(self):
        assert "SDA001" in codes("""
            def commit(memory, fast):
                memory.store_u64(0, 1)
                if not fast:
                    memory.sync(0, 8)
                memory.atomic_durable_store_u64(8, 2)
            """, select=["SDA001"])

    def test_interprocedural_store_fires(self):
        # The store hides inside a helper method; the summary carries
        # its may-exit-dirty bit back to the marker site.
        assert "SDA001" in codes("""
            class Engine:
                def _write(self):
                    self._memory.write_slot(0, b"x")

                def _do_commit(self):
                    self._write()
                    self._memory.atomic_durable_store_u64(8, 2)
            """, select=["SDA001"])

    def test_helper_that_syncs_is_clean(self):
        assert codes("""
            class Engine:
                def _write(self):
                    self._memory.write_slot(0, b"x")
                    self._memory.sync_ranges([(0, 1)])

                def _do_commit(self):
                    self._write()
                    self._memory.atomic_durable_store_u64(8, 2)
            """, select=["SDA001"]) == []

    def test_set_state_durable_false_fires(self):
        assert "SDA001" in codes("""
            def commit(store):
                store.set_state(0, 1, durable=False)
                store.atomic_durable_store_u64(8, 2)
            """, select=["SDA001"])

    def test_set_state_default_syncs(self):
        assert codes("""
            def commit(store):
                store.set_state(0, 1)
                store.atomic_durable_store_u64(8, 2)
            """, select=["SDA001"]) == []

    def test_noqa_waives_the_marker_line(self):
        assert codes("""
            def commit(memory):
                memory.store_u64(0, 1)
                memory.atomic_durable_store_u64(8, 2)  # noqa: SDA001
            """, select=["SDA001"]) == []


class TestSDA002DirtyDurabilityExit:
    VIOLATING = """
        class Engine:
            is_nvm_aware = True

            def _do_commit(self):
                self._memory.store_u64(0, 1)
        """

    def test_dirty_exit_fires(self):
        assert codes(self.VIOLATING,
                     select=["SDA002"]) == ["SDA002"]

    def test_synced_exit_is_clean(self):
        assert codes("""
            class Engine:
                is_nvm_aware = True

                def _do_commit(self):
                    self._memory.store_u64(0, 1)
                    self._memory.persist()
            """, select=["SDA002"]) == []

    def test_non_nvm_aware_engine_is_ignored(self):
        assert codes("""
            class Engine:
                is_nvm_aware = False

                def _do_commit(self):
                    self._memory.store_u64(0, 1)
            """, select=["SDA002"]) == []

    def test_root_inherited_through_mro_fires(self):
        # The flag sits on the subclass, the dirty root on the base —
        # resolution must walk the hierarchy like engine dispatch does.
        assert codes("""
            class Base:
                def _do_recover(self):
                    self._memory.store_u64(0, 1)

            class NvmEngine(Base):
                is_nvm_aware = True
            """, select=["SDA002"]) == ["SDA002"]

    def test_non_root_method_is_ignored(self):
        assert codes("""
            class Engine:
                is_nvm_aware = True

                def scribble(self):
                    self._memory.store_u64(0, 1)
            """, select=["SDA002"]) == []


class TestSDA003RedundantDoubleFlush:
    def test_double_flush_fires(self):
        assert codes("""
            def flush(memory, addr):
                memory.clwb(addr)
                memory.clwb(addr)
            """, select=["SDA003"]) == ["SDA003"]

    def test_store_between_flushes_is_clean(self):
        assert codes("""
            def flush(memory, addr):
                memory.clwb(addr)
                memory.store_u64(addr, 1)
                memory.clwb(addr)
            """, select=["SDA003"]) == []

    def test_different_ranges_are_clean(self):
        assert codes("""
            def flush(memory, a, b):
                memory.clwb(a)
                memory.clwb(b)
            """, select=["SDA003"]) == []

    def test_loop_rebinding_invalidates_flush_memory(self):
        # Each iteration flushes a *different* addr even though the
        # key text matches; the loop target invalidates it.
        assert codes("""
            def flush(memory, addrs):
                for addr in addrs:
                    memory.clwb(addr)
            """, select=["SDA003"]) == []


class TestSDA004FenceWithoutFlush:
    def test_bare_fence_fires(self):
        assert codes("""
            def fence(memory):
                memory.sfence()
            """, select=["SDA004"]) == ["SDA004"]

    def test_flush_then_fence_is_clean(self):
        assert codes("""
            def fence(memory, addr):
                memory.clwb(addr)
                memory.sfence()
            """, select=["SDA004"]) == []

    def test_any_call_may_flush(self):
        assert codes("""
            def fence(memory, addr):
                helper(addr)
                memory.sfence()
            """, select=["SDA004"]) == []

    def test_wrapper_named_sfence_is_exempt(self):
        assert codes("""
            def sfence(lib):
                lib.sfence()
            """, select=["SDA004"]) == []


class TestRunner:
    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule codes"):
            codes("x = 1\n", select=["SDA999"])

    def test_violations_sorted_by_location(self):
        violations = analyze_project(project_of("""
            def fence(memory):
                memory.sfence()

            def commit(memory):
                memory.store_u64(0, 1)
                memory.atomic_durable_store_u64(8, 2)
            """), select=["SDA001", "SDA004"])
        assert [v.code for v in violations] == ["SDA004", "SDA001"]
        assert violations[0].line < violations[1].line
        assert violations[0].symbol == "fence"
        assert violations[1].symbol == "commit"
