"""Project model: class indexing, MRO resolution, call names."""

from __future__ import annotations

import re
import textwrap

import pytest

from repro.analysis.static.callgraph import (Project, build_project,
                                             call_name)
from repro.lint.framework import SourceFile


def project_of(*sources: str) -> Project:
    return Project([SourceFile(f"mod{i}.py", textwrap.dedent(src))
                    for i, src in enumerate(sources)])


HIERARCHY = """
    class Base:
        is_nvm_aware = False

        def commit(self):
            return self._do_commit()

        def _do_commit(self):
            pass

    class NvmEngine(Base):
        is_nvm_aware = True

        def _do_commit(self):
            pass

    class HybridEngine(NvmEngine):
        pass
    """


class TestResolution:
    def test_override_wins(self):
        project = project_of(HIERARCHY)
        func = project.resolve_method("NvmEngine", "_do_commit")
        assert func is not None
        assert func.cls is not None and func.cls.name == "NvmEngine"

    def test_inherited_method_resolves_through_mro(self):
        project = project_of(HIERARCHY)
        func = project.resolve_method("HybridEngine", "commit")
        assert func is not None
        assert func.cls is not None and func.cls.name == "Base"
        # The override still shadows the base along the grandchild.
        do = project.resolve_method("HybridEngine", "_do_commit")
        assert do is not None and do.cls.name == "NvmEngine"

    def test_unknown_method_is_none(self):
        project = project_of(HIERARCHY)
        assert project.resolve_method("Base", "missing") is None

    def test_class_attr_through_mro(self):
        project = project_of(HIERARCHY)
        assert project.class_attr("HybridEngine",
                                  "is_nvm_aware") is True
        assert project.class_attr("Base", "is_nvm_aware") is False
        assert project.class_attr("Base", "missing") is None

    def test_subclasses_inclusive(self):
        project = project_of(HIERARCHY)
        names = {cls.name for cls in project.subclasses("Base")}
        assert names == {"Base", "NvmEngine", "HybridEngine"}

    def test_cross_module_bases(self):
        project = project_of(
            "class A:\n    def ping(self):\n        pass\n",
            "class B(A):\n    pass\n")
        func = project.resolve_method("B", "ping")
        assert func is not None and func.cls.name == "A"


class TestAmbiguity:
    def test_duplicate_class_name_is_not_resolved(self):
        project = project_of(
            "class Dup:\n    def ping(self):\n        pass\n",
            "class Dup:\n    def pong(self):\n        pass\n")
        assert project.lookup_class("Dup") is None
        assert project.resolve_method("Dup", "ping") is None


class TestCallName:
    def test_shapes(self):
        import ast

        def name_of(src):
            call = ast.parse(src).body[0].value
            return call_name(call)

        assert name_of("sync()") == "sync"
        assert name_of("self.memory.sync(a)") == "self.memory.sync"
        assert name_of("x[0].sync()") == "?.sync"


class TestBuildProject:
    def test_unparseable_file_is_an_error(self, tmp_path):
        # Once silently skipped: `analyze --gate` on a file that does
        # not parse passed with 0 findings.
        (tmp_path / "good.py").write_text("def f():\n    pass\n")
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: "):
            build_project([tmp_path])
