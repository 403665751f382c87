"""Project-specific static lint pass (``repro lint``) and the rule
engine it shares with ``repro analyze``.

A ruff-plugin-style engine over the stdlib :mod:`ast` module — no
third-party linter is needed to enforce the project's NVM-specific
invariants. Each rule is a small visitor class with a stable ``LNTxxx``
code; ``# noqa: LNTxxx`` on the flagged line waives a finding.

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from .framework import (ANALYZE, LINT, LintViolation, Rule, RULE_REGISTRY,
                        SourceFile, iter_source_files, register_rule,
                        rule_catalogue, run_rules)
from .reporting import (baseline_diff, emit_findings, fingerprint,
                        load_baseline, parse_select,
                        print_rule_catalogue, save_baseline)
from .rules import DEFAULT_LINT_PATHS, lint_files, lint_paths

__all__ = ["ANALYZE", "LINT", "LintViolation", "Rule", "RULE_REGISTRY",
           "SourceFile", "iter_source_files", "lint_files", "lint_paths",
           "register_rule", "rule_catalogue", "run_rules",
           "DEFAULT_LINT_PATHS",
           "baseline_diff", "emit_findings", "fingerprint",
           "load_baseline", "parse_select", "print_rule_catalogue",
           "save_baseline"]
