"""The lint engine: run the rules over one module summary each.

A rule flags *syntactic* witnesses of the property it protects -- it
never executes the code under test.  The hazard facts come from the
one extractor, :func:`repro.check.flow.summary.summarize_source`, which
also keeps the parsed tree for the rules that read syntax directly; so
linting and the flow analysis share one parse per file.

False positives are expected to be rare and are silenced in place with
an allowlist pragma on the offending line (or the line directly above
it)::

    t = time.time()  # repro: allow[wall-clock]

    # repro: allow[set-iteration,magic-latency]
    for d in {0, 1, 2}: ...

The pragma names one or more rule ids (comma-separated) or ``*`` for a
blanket waiver.  Waivers are deliberately line-scoped: a file- or
package-level opt-out would defeat the point of review-time checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.check.flow.summary import (ModuleSummary, summarize_paths,
                                      summarize_source)

__all__ = ["Violation", "LintReport", "lint_source", "lint_summaries",
           "lint_paths"]


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    rule_id: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule_id, "path": self.path,
                "line": self.line, "message": self.message}


@dataclass
class LintReport:
    """Outcome of linting a set of files."""

    violations: List[Violation]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [v.render() for v in self.violations]
        lines.append(f"{len(self.violations)} violation(s) in "
                     f"{self.files_checked} file(s)")
        return "\n".join(lines)


def _lint_module(summary: ModuleSummary, rules=None) -> List[Violation]:
    """Every unwaived rule hit in one summarized module."""
    from repro.check.rules import ALL_RULES

    out: List[Violation] = []
    for rule in (rules if rules is not None else ALL_RULES):
        if not rule.applies_to(summary.module):
            continue
        for violation in rule.check(summary):
            if not summary.is_allowed((violation.rule_id,),
                                      violation.line):
                out.append(violation)
    out.sort(key=lambda v: (v.line, v.rule_id))
    return out


def lint_source(source: str, *, path: str = "<string>",
                module: str = "repro", rules=None) -> List[Violation]:
    """Lint one source string; the unit used by the rule tests."""
    return _lint_module(
        summarize_source(source, module=module, path=path), rules)


def lint_summaries(summaries: Sequence[ModuleSummary],
                   rules=None) -> LintReport:
    """Lint already-summarized files (one report, stable order)."""
    violations: List[Violation] = []
    for summary in summaries:
        violations.extend(_lint_module(summary, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return LintReport(violations=violations,
                      files_checked=len(summaries))


def lint_paths(src_root: Path, rules=None) -> LintReport:
    """Lint every Python file under ``src_root`` (e.g. ``src/``)."""
    return lint_summaries(list(summarize_paths(src_root)), rules)
