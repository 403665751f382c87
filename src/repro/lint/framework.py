"""The rule engine behind ``repro lint`` and ``repro analyze``.

One engine serves every static rule family: the per-file/project
``LNT`` lint rules and the path-sensitive ``SDA``/``ACD`` dataflow
rules. It is built purely on the stdlib :mod:`ast` module (ruff-plugin
style — a rule is a class with a stable code and a hook yielding
violations) so it runs in the bare container.

* **Loading** — :func:`iter_source_files` expands paths into parsed
  :class:`SourceFile`\\ s, decoding each file the way the interpreter
  does (PEP 263 cookie, UTF-8 BOM). A file that cannot be decoded or
  parsed is an error naming it, never a silent skip.
* **Rules** — subclass :class:`Rule`, set ``code``/``name``/
  ``description`` and decorate with :func:`register_rule`. A rule sees
  the whole :class:`~repro.analysis.static.callgraph.Project` through
  :meth:`Rule.check_project`; a per-file rule overrides
  :meth:`Rule.check`, which the base runs over ``project.files``.
* **Families** — a family is a tuple of code prefixes: :data:`LINT`
  for ``repro lint``, :data:`ANALYZE` for ``repro analyze``.
  :func:`run_rules` runs one family (or a ``select``-ed subset of it),
  applies waivers and sorts; :func:`rule_catalogue` lists it.

Waivers: a ``# noqa`` comment on the flagged physical line suppresses
every code; ``# noqa: LNT001`` (comma-separated list allowed)
suppresses just those codes.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple, Type, Union)

if TYPE_CHECKING:  # the project model imports this module
    from repro.analysis.static.callgraph import FunctionInfo, Project

__all__ = ["ANALYZE", "LINT", "LintViolation", "Rule", "RULE_REGISTRY",
           "SourceFile", "iter_source_files", "register_rule",
           "rule_catalogue", "run_rules"]

#: Rule families, as code prefixes.
LINT: Tuple[str, ...] = ("LNT",)
ANALYZE: Tuple[str, ...] = ("SDA", "ACD")

_NOQA = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
    re.IGNORECASE)


@dataclass(frozen=True)
class LintViolation:
    """One finding: rule code + message anchored to a source line.

    ``symbol`` (the enclosing function's qualname, when the rule knows
    it) anchors baseline fingerprints so findings survive line drift;
    file-granularity rules leave it empty.
    """

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    symbol: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"code": self.code, "message": self.message,
                "path": self.path, "line": self.line, "col": self.col,
                "symbol": self.symbol}

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")


def _parse_noqa(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line number -> waived codes (``None`` = all)."""
    waivers: Dict[int, Optional[Set[str]]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        waivers[number] = (None if codes is None else
                           {code.strip().upper()
                            for code in codes.split(",")})
    return waivers


class SourceFile:
    """A parsed module: path, raw source, AST, and noqa waivers."""

    __slots__ = ("path", "source", "tree", "noqa")

    def __init__(self, path: Union[str, Path], source: str) -> None:
        self.path = str(path)
        self.source = source
        self.tree = ast.parse(source, filename=self.path)
        self.noqa = _parse_noqa(source)

    @classmethod
    def read(cls, path: Union[str, Path]) -> "SourceFile":
        """Decode and parse ``path`` as the interpreter would; a decode
        or syntax error becomes a :class:`ValueError` naming the file."""
        try:
            with tokenize.open(path) as handle:
                return cls(path, handle.read())
        except (SyntaxError, ValueError) as error:
            raise ValueError(f"{path}: {error}") from error

    def waives(self, violation: LintViolation) -> bool:
        codes = self.noqa.get(violation.line, frozenset())
        return codes is None or violation.code in codes


class Rule:
    """Base class for every rule. Subclasses set ``code``, ``name``,
    ``description`` and override :meth:`check_project`, or
    :meth:`check` for a rule that looks at one file at a time."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        for file in project.files:
            yield from self.check(file)

    def check(self, file: SourceFile) -> Iterator[LintViolation]:
        return iter(())

    def violation(self, where: Union[SourceFile, FunctionInfo],
                  node: ast.AST, message: str) -> LintViolation:
        """A finding at ``node``, in a file or in a function (whose
        qualname anchors the baseline fingerprint)."""
        if isinstance(where, SourceFile):
            path, line, symbol = where.path, 1, ""
        else:
            path, line = where.file.path, where.node.lineno
            symbol = where.qualname
        return LintViolation(
            code=self.code, message=message, path=path,
            line=getattr(node, "lineno", line),
            col=getattr(node, "col_offset", 0), symbol=symbol)


#: code -> rule class; populated by :func:`register_rule`.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def iter_source_files(
        paths: Iterable[Union[str, Path]]) -> List[SourceFile]:
    """Expand files/directories into parsed :class:`SourceFile`\\ s.
    Directories are walked recursively for ``*.py``."""
    seen: Set[str] = set()
    files: List[SourceFile] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            key = str(candidate.resolve())
            if key in seen:
                continue
            seen.add(key)
            files.append(SourceFile.read(candidate))
    return files


def rule_catalogue(family: Tuple[str, ...]) -> Dict[str, Tuple[str, str]]:
    """code -> (name, description) for one family, in code order."""
    return {code: (cls.name, cls.description)
            for code, cls in sorted(RULE_REGISTRY.items())
            if code.startswith(family)}


def run_rules(project: Project, family: Tuple[str, ...],
              select: Optional[Iterable[str]] = None
              ) -> List[LintViolation]:
    """Run ``family``'s rules (or the ``select``-ed ones) over
    ``project``, drop waived findings, return them sorted by
    location."""
    codes = list(rule_catalogue(family))
    if select is not None:
        wanted = {code.upper() for code in select}
        unknown = wanted - set(codes)
        if unknown:
            raise ValueError(
                f"unknown rule codes: {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(codes)}")
        codes = [code for code in codes if code in wanted]
    by_path = {file.path: file for file in project.files}
    kept = [violation for code in codes
            for violation in RULE_REGISTRY[code]().check_project(project)
            if violation.path not in by_path
            or not by_path[violation.path].waives(violation)]
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return kept
