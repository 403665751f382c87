"""Project model and call graph for the static rules.

The durability rules need to see through helper methods: NVM-InP's
insert path stores via ``FixedSlotPool.write_slot`` and syncs via
``VarlenPool.sync_many``, so purely intraprocedural analysis would be
blind. This module builds a light project-wide model:

* every module's AST (the rule engine's
  :class:`~repro.lint.framework.SourceFile`, so ``# noqa`` waivers and
  the loader are the same for every rule family);
* every class with its methods, resolved base classes (by unique
  simple name within the project) and an MRO approximation;
* ``self.method(...)`` call resolution in the context of a *concrete*
  class, walking that class's MRO (:meth:`Project.self_callee`) —
  which is exactly how the engine hierarchy dispatches
  (``StorageEngine.commit`` → the registered engine's
  ``_do_commit``);
* simple class-attribute lookup through the MRO (used to find engines
  with ``is_nvm_aware = True``).

Resolution is deliberately name-based and unsound in the compiler
sense (no type inference); for this codebase's single-inheritance,
uniquely-named classes it is exact, and the rules only use it to
*extend* path coverage, never to silence a local finding.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.lint.framework import SourceFile, iter_source_files

from .cfg import CFG, FunctionNode, build_cfg

__all__ = ["ClassInfo", "FunctionInfo", "Project", "build_project",
           "call_name", "callee_name", "receiver_text"]


def call_name(call: ast.Call) -> str:
    """Dotted name of a call's callee: ``self._memory.sync`` →
    ``self._memory.sync``; plain ``sync(...)`` → ``sync``."""
    parts: List[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif not parts:
        return ""
    else:
        parts.append("?")
    return ".".join(reversed(parts))


def callee_name(call: ast.Call) -> str:
    """Last segment of :func:`call_name`: ``self._memory.sync`` →
    ``sync`` — what the name-based rule vocabularies match on."""
    return call_name(call).rsplit(".", 1)[-1]


def receiver_text(node: ast.expr) -> str:
    """Normalised source text of an expression, used as a token key
    for lock receivers and flush ranges."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


class FunctionInfo:
    """One function or method and its lazily-built CFG."""

    __slots__ = ("node", "file", "cls", "_cfg")

    def __init__(self, node: FunctionNode, file: SourceFile,
                 cls: Optional["ClassInfo"]) -> None:
        self.node = node
        self.file = file
        self.cls = cls
        self._cfg: Optional[CFG] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        if self.cls is not None:
            return f"{self.cls.name}.{self.node.name}"
        return self.node.name

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg


class ClassInfo:
    """One class: its methods, simple class attributes, and base-class
    names (resolved later by :class:`Project`)."""

    __slots__ = ("node", "file", "name", "methods", "base_names",
                 "class_attrs")

    def __init__(self, node: ast.ClassDef, file: SourceFile) -> None:
        self.node = node
        self.file = file
        self.name = node.name
        self.methods: Dict[str, FunctionInfo] = {}
        self.base_names: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                self.base_names.append(base.id)
            elif isinstance(base, ast.Attribute):
                self.base_names.append(base.attr)
        #: name → constant value, for ``is_nvm_aware = True``-style
        #: flags assigned directly in the class body.
        self.class_attrs: Dict[str, object] = {}
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Constant)):
                self.class_attrs[stmt.targets[0].id] = \
                    stmt.value.value


class Project:
    """Every analysed module, class and function, plus resolution."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: List[FunctionInfo] = []
        #: Simple class names that appear more than once — resolution
        #: through them is ambiguous, so it is skipped.
        self._ambiguous: set[str] = set()
        for file in self.files:
            self._index_module(file)
        self._mro_cache: Dict[str, List[ClassInfo]] = {}

    # -- indexing -------------------------------------------------------

    def _index_module(self, file: SourceFile) -> None:
        for node in file.tree.body:
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                self.functions.append(FunctionInfo(node, file, None))
            elif isinstance(node, ast.ClassDef):
                self._index_class(node, file)

    def _index_class(self, node: ast.ClassDef,
                     file: SourceFile) -> None:
        info = ClassInfo(node, file)
        if node.name in self.classes:
            self._ambiguous.add(node.name)
        else:
            self.classes[node.name] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                func = FunctionInfo(item, file, info)
                info.methods[item.name] = func
                self.functions.append(func)

    # -- resolution -----------------------------------------------------

    def lookup_class(self, name: str) -> Optional[ClassInfo]:
        if name in self._ambiguous:
            return None
        return self.classes.get(name)

    def mro(self, name: str) -> List[ClassInfo]:
        """Linearised bases (the class first), depth-first with
        duplicates removed — close enough to C3 for the project's
        single-inheritance hierarchies."""
        cached = self._mro_cache.get(name)
        if cached is not None:
            return cached
        order: List[ClassInfo] = []
        seen: set[str] = set()

        def visit(cls_name: str) -> None:
            if cls_name in seen:
                return
            seen.add(cls_name)
            info = self.lookup_class(cls_name)
            if info is None:
                return
            order.append(info)
            for base in info.base_names:
                visit(base)

        visit(name)
        self._mro_cache[name] = order
        return order

    def resolve_method(self, cls_name: str,
                       method: str) -> Optional[FunctionInfo]:
        """``self.method()`` in the context of concrete ``cls_name``."""
        for info in self.mro(cls_name):
            if method in info.methods:
                return info.methods[method]
        return None

    def self_callee(self, context: Optional[ClassInfo], call: ast.Call,
                    caller: FunctionInfo) -> Optional[FunctionInfo]:
        """The method a ``self.m(...)`` call in ``caller`` reaches when
        ``self`` is a ``context`` instance; ``None`` for any other call,
        an unresolved name, or ``caller`` calling itself."""
        name = call_name(call)
        if (context is None or not name.startswith("self.")
                or name.count(".") != 1):
            return None
        callee = self.resolve_method(context.name, name[len("self."):])
        if callee is None or callee.node is caller.node:
            return None
        return callee

    def class_attr(self, cls_name: str, attr: str) -> object:
        """A simple class attribute through the MRO, else ``None``."""
        for info in self.mro(cls_name):
            if attr in info.class_attrs:
                return info.class_attrs[attr]
        return None

    def subclasses(self, base_name: str) -> List[ClassInfo]:
        """Every class whose MRO contains ``base_name`` (inclusive)."""
        out = []
        for name in self.classes:
            if any(info.name == base_name for info in self.mro(name)):
                out.append(self.classes[name])
        return out


def build_project(paths: Iterable[Union[str, Path]]) -> Project:
    """Read every ``*.py`` under ``paths`` into a :class:`Project`."""
    return Project(iter_source_files(paths))
