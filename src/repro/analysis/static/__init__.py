"""Static analysis substrate and the SDA/ACD rule family.

The project model (:mod:`.callgraph`), per-function CFGs (:mod:`.cfg`)
and the forward dataflow solver with its replay (:mod:`.dataflow`)
feed the ``SDA``/``ACD`` rules, which run on the one rule engine of
:mod:`repro.lint.framework` as its :data:`~repro.lint.framework.ANALYZE`
family. Importing this package registers every rule (the ``sda``/``acd``
modules run their ``@register_rule`` decorators on import), so
``repro analyze`` and tests only need::

    from repro.analysis.static import analyze_paths
"""

from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro.lint.framework import ANALYZE, LintViolation, run_rules

from . import acd as _acd          # noqa: F401  (registers ACD rules)
from . import sda as _sda          # noqa: F401  (registers SDA rules)
from .callgraph import Project, build_project
from .cfg import CFG, build_cfg, statement_calls
from .dataflow import fold, replay, solve_forward

__all__ = [
    "CFG", "DEFAULT_ANALYZE_PATHS", "Project", "analyze_paths",
    "analyze_project", "build_cfg", "build_project", "fold", "replay",
    "solve_forward", "statement_calls",
]

#: `repro analyze` scans the whole package by default.
DEFAULT_ANALYZE_PATHS: Tuple[str, ...] = (
    str(Path(__file__).resolve().parents[2]),)


def analyze_project(project: Project,
                    select: Optional[Iterable[str]] = None
                    ) -> List[LintViolation]:
    return run_rules(project, ANALYZE, select)


def analyze_paths(paths: Iterable[Union[str, Path]],
                  select: Optional[Iterable[str]] = None
                  ) -> List[LintViolation]:
    return run_rules(build_project(paths), ANALYZE, select)
