"""Shared report/exit-code/JSON/baseline plumbing for the source
tools (``repro lint`` and ``repro analyze``).

Both commands present findings the same way: one human format, one
JSON schema, one ``--select`` parser, and — for the analyzer — one
baseline-ratchet format. A baseline maps finding *fingerprints* to
counts; fingerprints anchor on the enclosing symbol when the rule
provides one, so findings survive unrelated line drift but a
genuinely new finding in the same function still shows up as a count
increase.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .framework import LintViolation

__all__ = ["BASELINE_KIND", "baseline_diff", "emit_findings",
           "fingerprint", "load_baseline", "parse_select",
           "print_rule_catalogue", "save_baseline"]

BASELINE_KIND = "repro-analyze-baseline/1"


def parse_select(text: Optional[str]) -> Optional[List[str]]:
    """``"SDA001, ACD002"`` → ``["SDA001", "ACD002"]``; None/empty →
    None (run everything). Text that names no code (``", ,"``) is an
    error, not an empty selection."""
    if not text:
        return None
    codes = [code.strip() for code in text.split(",") if code.strip()]
    if not codes:
        raise ValueError("no rule codes in --select")
    return codes


def print_rule_catalogue(title: str,
                         rules: Dict[str, Tuple[str, str]]) -> None:
    from repro.analysis.tables import format_table
    print(format_table(
        ["code", "name", "description"],
        [[code, name, description]
         for code, (name, description) in sorted(rules.items())],
        title=title))


def emit_findings(violations: Sequence[LintViolation],
                  json_out: Optional[str] = None) -> int:
    """Print findings (human lines, or JSON when ``json_out`` is
    ``'-'``/a path) and return the exit code: 0 clean, 1 findings."""
    if json_out is not None:
        payload = [violation.to_dict() for violation in violations]
        if json_out == "-":
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            with open(json_out, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"report -> {json_out}")
    else:
        for violation in violations:
            print(violation)
        print(f"{len(violations)} finding(s)")
    return 1 if violations else 0


def fingerprint(violation: LintViolation,
                root: Optional[Union[str, Path]] = None) -> str:
    """Stable identity of a finding for baseline matching:
    ``code::relative-path::symbol`` (falling back to the line number
    when the rule did not attach a symbol)."""
    path = Path(violation.path)
    base = Path(root) if root is not None else Path.cwd()
    try:
        rel = path.resolve().relative_to(base.resolve())
    except ValueError:
        rel = path
    anchor = violation.symbol or f"L{violation.line}"
    return f"{violation.code}::{rel.as_posix()}::{anchor}"


def _counts(violations: Sequence[LintViolation],
            root: Optional[Union[str, Path]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for violation in violations:
        key = fingerprint(violation, root)
        counts[key] = counts.get(key, 0) + 1
    return counts


def load_baseline(path: Union[str, Path]) -> Dict[str, int]:
    """Read a baseline file; a missing file is an empty baseline."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("kind") != BASELINE_KIND:
        raise ValueError(
            f"{path}: not a {BASELINE_KIND} file "
            f"(kind={payload.get('kind')!r})")
    findings = payload.get("findings", {})
    if not isinstance(findings, dict):
        raise ValueError(f"{path}: findings must be an object")
    return {str(key): int(value)
            for key, value in findings.items()}


def save_baseline(path: Union[str, Path],
                  violations: Sequence[LintViolation],
                  root: Optional[Union[str, Path]] = None) -> None:
    payload = {
        "kind": BASELINE_KIND,
        "findings": dict(sorted(_counts(violations, root).items())),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def baseline_diff(violations: Sequence[LintViolation],
                  baseline: Dict[str, int],
                  root: Optional[Union[str, Path]] = None
                  ) -> Tuple[List[LintViolation], List[str]]:
    """(new findings not covered by the baseline, stale baseline
    entries no current finding matches). The gate fails on either:
    new findings regress the code, stale entries mean the baseline
    should shrink (the ratchet only ever tightens)."""
    remaining = dict(baseline)
    fresh: List[LintViolation] = []
    for violation in violations:
        key = fingerprint(violation, root)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            fresh.append(violation)
    stale = sorted(key for key, count in remaining.items()
                   if count > 0)
    return fresh, stale
