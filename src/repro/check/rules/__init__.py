"""The lint rule catalog.

Rules are grouped by the invariant they protect:

* :mod:`repro.check.rules.determinism` -- seeded randomness and no
  wall-clock reads inside simulation-critical packages;
* :mod:`repro.check.rules.ordering` -- no iteration order drawn from
  unordered containers or the salted ``hash``;
* :mod:`repro.check.rules.constants` -- device latency constants flow
  through :mod:`repro.flash.params`, never inline;
* :mod:`repro.check.rules.hygiene` -- no mutable default arguments or
  bare ``except`` in the package.

Every rule has a stable kebab-case ``rule_id`` (the pragma key), a
one-line ``title``, a ``rationale`` and a ``scope`` -- the package
prefixes it applies to (``None`` = all of ``repro``).  A
:class:`FactRule` decides nothing itself: it reports the extractor's
source facts of its own kind (:mod:`repro.check.flow.summary`).  The
other rules read the module's parsed tree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.check.flow.summary import ModuleSummary
from repro.check.lint import Violation

__all__ = ["Rule", "FactRule", "ALL_RULES", "RULES_BY_ID",
           "rule_catalog", "SIM_CRITICAL"]

#: Packages whose behaviour feeds simulated time and event ordering.
SIM_CRITICAL = ("repro.sim", "repro.flash", "repro.retrieval",
                "repro.traces")


class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    #: package prefixes the rule applies to; ``None`` = everywhere
    scope: Optional[Sequence[str]] = None

    def applies_to(self, module: str) -> bool:
        """True if ``module`` falls under one of the rule's prefixes."""
        if self.scope is None:
            return True
        return any(module == p or module.startswith(p + ".")
                   for p in self.scope)

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, summary: ModuleSummary, line: int,
                  message: str) -> Violation:
        return Violation(rule_id=self.rule_id, path=summary.path,
                         line=line, message=message)

    def describe(self) -> Dict[str, object]:
        return {"id": self.rule_id, "title": self.title,
                "rationale": self.rationale,
                "scope": list(self.scope) if self.scope else "repro"}


class FactRule(Rule):
    """Reports every source fact whose kind is this rule's id."""

    #: what to do instead, appended to the fact's detail
    advice: str = ""

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for fact in summary.facts():
            if fact.kind == self.rule_id:
                yield self.violation(summary, fact.line,
                                     f"{fact.detail}; {self.advice}")


def _build_registry() -> List[Rule]:
    from repro.check.rules import constants, determinism, hygiene, ordering

    rules: List[Rule] = []
    for module in (determinism, ordering, constants, hygiene):
        rules.extend(cls() for cls in module.RULES)
    ids = [r.rule_id for r in rules]
    if len(ids) != len(set(ids)):  # pragma: no cover - registry bug
        raise RuntimeError(f"duplicate rule ids: {ids}")
    return rules


ALL_RULES: List[Rule] = _build_registry()
RULES_BY_ID: Dict[str, Rule] = {r.rule_id: r for r in ALL_RULES}


def rule_catalog() -> List[Dict[str, object]]:
    """Machine-readable catalog (embedded in the JSON report)."""
    return [r.describe() for r in ALL_RULES]
