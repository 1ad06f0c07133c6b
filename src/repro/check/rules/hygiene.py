"""Hygiene rules: failure modes that corrupt state silently.

A mutable default argument is shared across every call of the function,
so one caller's mutation leaks into the next -- in a simulator that
manifests as cross-run contamination, the exact class of bug the
determinism probe exists to catch.  A bare ``except`` swallows
``SanitizerError`` (and ``KeyboardInterrupt``) along with whatever it
meant to catch.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.flow.summary import ModuleSummary
from repro.check.lint import Violation
from repro.check.rules import Rule

__all__ = ["MutableDefault", "BareExcept", "RULES"]

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque",
                  "Counter", "OrderedDict"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS)


class MutableDefault(Rule):
    """No mutable default arguments."""

    rule_id = "mutable-default"
    title = "no mutable default arguments"
    rationale = ("A mutable default is evaluated once and shared by all "
                 "calls; state leaks across invocations and across "
                 "simulation runs. Default to None and construct inside.")
    scope = None

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for node in ast.walk(summary.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            defaults = list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.violation(
                        summary, default.lineno,
                        "mutable default argument is shared across "
                        "calls; default to None and build per call")


class BareExcept(Rule):
    """No bare ``except:`` clauses."""

    rule_id = "bare-except"
    title = "no bare except"
    rationale = ("except: catches SystemExit, KeyboardInterrupt and "
                 "SanitizerError alike, hiding tripped invariants; "
                 "name the exception type.")
    scope = None

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        for node in ast.walk(summary.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    summary, node.lineno,
                    "bare except swallows sanitizer and interrupt "
                    "exceptions; catch a specific type")


RULES = [MutableDefault, BareExcept]
