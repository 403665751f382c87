"""The project lint rules (LNT001–LNT005).

Rules encode NVM-specific invariants that a generic linter cannot
know about:

========  ==========================================================
LNT001    raw ``clflush``/``clwb`` call in a function with no
          ``sfence`` — an unfenced flush gives no ordering guarantee;
          engine code must use the ``sync``/``sync_ranges`` primitive
LNT002    ``faults.fire("name")`` whose name is not registered with
          ``register_fault_point`` anywhere in the scanned tree
LNT003    ``register_fault_point("name")`` that no code ever fires —
          dead fault points silently shrink crash-campaign coverage
LNT004    ``@register_engine`` constructor taking positional
          parameters beyond ``(self, platform, config)`` — engine
          options must be keyword-only so sweep specs stay readable
LNT005    small value class (bare ``__init__`` of plain attribute
          assignments) without ``__slots__`` — these are hot-path
          per-table/per-txn objects allocated in bulk
========  ==========================================================

``DEFAULT_LINT_PATHS`` covers ``src/repro/engines``,
``src/repro/nvm``, and ``src/repro/fault`` (the fault package is
included so the registry cross-check sees the ``recovery.*``
registrations that live in ``fault/injector.py``). ``lint_files`` and
``lint_paths`` run this family (:data:`~.framework.LINT`) through the
one rule engine.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.analysis.static.callgraph import (Project, build_project,
                                             callee_name)

from .framework import (LINT, LintViolation, Rule, SourceFile,
                        register_rule, run_rules)

__all__ = ["DEFAULT_LINT_PATHS", "lint_files", "lint_paths"]

_PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Directories `repro lint` scans when no paths are given.
DEFAULT_LINT_PATHS: Tuple[str, ...] = (
    str(_PACKAGE_ROOT / "engines"),
    str(_PACKAGE_ROOT / "nvm"),
    str(_PACKAGE_ROOT / "fault"),
)


def lint_files(files: Sequence[SourceFile],
               select: Optional[Iterable[str]] = None
               ) -> List[LintViolation]:
    """Run the LNT rules (or the ``select``-ed ones) over ``files``."""
    return run_rules(Project(files), LINT, select)


def lint_paths(paths: Iterable[Union[str, Path]],
               select: Optional[Iterable[str]] = None
               ) -> List[LintViolation]:
    return run_rules(build_project(paths), LINT, select)


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_calls(function: ast.AST) -> Iterator[ast.Call]:
    """Calls in ``function``'s own body, not in nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _literal_arg(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


@register_rule
class RawFlushWithoutFence(Rule):
    """LNT001: an unfenced CLFLUSH/CLWB orders nothing (Section 2.3)."""

    code = "LNT001"
    name = "raw-flush-without-fence"
    description = ("clflush/clwb call in a function that never issues "
                   "sfence; use the sync primitive instead")

    #: Facade wrappers that merely forward the instruction downward.
    _WRAPPERS = frozenset({"clflush", "clwb"})

    def check(self, file: SourceFile) -> Iterator[LintViolation]:
        for function in _functions(file.tree):
            if function.name in self._WRAPPERS:
                continue
            calls = list(_own_calls(function))
            if any(callee_name(call) == "sfence" for call in calls):
                continue
            for call in calls:
                if callee_name(call) in ("clflush", "clwb"):
                    yield self.violation(
                        file, call,
                        f"{callee_name(call)} in {function.name}() with "
                        f"no sfence in the same function — the flush "
                        f"is unordered; use sync()/sync_ranges()")


class _FaultPointScan:
    """Shared literal scan for the two fault-point rules."""

    def __init__(self, project: Project) -> None:
        self.registered: Dict[str, Tuple[SourceFile, ast.Call]] = {}
        self.fired: Dict[str, List[Tuple[SourceFile, ast.Call]]] = {}
        for file in project.files:
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = callee_name(node)
                literal = _literal_arg(node)
                if literal is None:
                    continue
                if name == "register_fault_point":
                    self.registered.setdefault(literal, (file, node))
                elif name == "fire":
                    self.fired.setdefault(literal, []).append(
                        (file, node))


@register_rule
class UnregisteredFaultPoint(Rule):
    """LNT002: firing a name the registry does not know is a silent
    no-op for crash campaigns (they enumerate the registry)."""

    code = "LNT002"
    name = "unregistered-fault-point"
    description = ("faults.fire() name without a matching "
                   "register_fault_point() in the scanned tree")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        scan = _FaultPointScan(project)
        for name, sites in sorted(scan.fired.items()):
            if name in scan.registered:
                continue
            for file, call in sites:
                yield self.violation(
                    file, call,
                    f"fault point {name!r} is fired but never "
                    f"registered; crash campaigns cannot target it")


@register_rule
class NeverFiredFaultPoint(Rule):
    """LNT003: a registered point nothing fires is dead coverage."""

    code = "LNT003"
    name = "never-fired-fault-point"
    description = ("register_fault_point() name that no faults.fire() "
                   "call uses in the scanned tree")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        scan = _FaultPointScan(project)
        for name, (file, call) in sorted(scan.registered.items()):
            if name not in scan.fired:
                yield self.violation(
                    file, call,
                    f"fault point {name!r} is registered but never "
                    f"fired; it inflates campaign coverage targets")


def _has_decorator(node: ast.ClassDef, name: str) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name) and target.id == name:
            return True
        if isinstance(target, ast.Attribute) and target.attr == name:
            return True
    return False


@register_rule
class EngineOptionsKeywordOnly(Rule):
    """LNT004: engine constructors are called positionally by the
    harness as ``cls(platform, config)``; any extra option must be
    keyword-only so sweep specs and test overrides stay explicit."""

    code = "LNT004"
    name = "engine-options-keyword-only"
    description = ("@register_engine __init__ with positional "
                   "parameters beyond (self, platform, config)")

    _ALLOWED = ("self", "platform", "config")

    def check(self, file: SourceFile) -> Iterator[LintViolation]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef) \
                    or not _has_decorator(node, "register_engine"):
                continue
            init = next(
                (item for item in node.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name == "__init__"), None)
            if init is None:
                continue
            positional = init.args.posonlyargs + init.args.args
            extras = [arg.arg for arg in positional
                      if arg.arg not in self._ALLOWED]
            if extras or init.args.vararg is not None:
                names = ", ".join(extras) or "*" + init.args.vararg.arg
                yield self.violation(
                    file, init,
                    f"engine {node.name}.__init__ takes positional "
                    f"parameter(s) {names} beyond (self, platform, "
                    f"config); make them keyword-only")


@register_rule
class MissingSlots(Rule):
    """LNT005: bare value classes (an ``__init__`` of plain attribute
    assignments, no other behaviour) are allocated per table / per
    transaction on hot paths; ``__slots__`` drops the per-instance
    dict."""

    code = "LNT005"
    name = "missing-slots"
    description = ("small value class (attribute-only __init__) "
                   "without __slots__")

    _METHODS = frozenset({"__init__", "__repr__"})

    def check(self, file: SourceFile) -> Iterator[LintViolation]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef) \
                    and self._qualifies(node):
                yield self.violation(
                    file, node,
                    f"value class {node.name} has an attribute-only "
                    f"__init__ but no __slots__")

    def _qualifies(self, node: ast.ClassDef) -> bool:
        if node.decorator_list or node.keywords:
            return False
        if any(not (isinstance(base, ast.Name)
                    and base.id == "object")
               for base in node.bases):
            return False
        init = None
        for index, item in enumerate(node.body):
            if index == 0 and isinstance(item, ast.Expr) \
                    and isinstance(item.value, ast.Constant):
                continue  # docstring
            if not isinstance(item, ast.FunctionDef) \
                    or item.name not in self._METHODS:
                return False  # class attrs (incl. __slots__) or logic
            if item.name == "__init__":
                init = item
        return init is not None and self._plain_init(init)

    @staticmethod
    def _plain_init(init: ast.FunctionDef) -> bool:
        for index, statement in enumerate(init.body):
            if index == 0 and isinstance(statement, ast.Expr) \
                    and isinstance(statement.value, ast.Constant):
                continue  # docstring
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            else:
                return False
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    return False
        return True

