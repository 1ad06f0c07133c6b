"""Rule: device latency constants live in :mod:`repro.flash.params`.

The paper's headline number -- one 8 KB read = 0.132507 ms -- and its
decomposition are defined exactly once, in ``FlashParams``.  An inline
copy elsewhere silently decouples an experiment from the parameter set
it claims to use: change the device model and the experiment keeps
asserting against the stale constant.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.flow.summary import ModuleSummary
from repro.check.lint import Violation
from repro.check.rules import Rule

__all__ = ["MagicLatency", "RULES", "LATENCY_CONSTANTS"]

#: floats that uniquely identify the MSR SSD timing model
LATENCY_CONSTANTS = {
    0.132507: "FlashParams.read_ms (8 KB read)",
    0.107507: "FlashParams.transfer_ms (bus transfer)",
    0.307507: "FlashParams.write_ms (8 KB program)",
}


class MagicLatency(Rule):
    """Latency constants must flow through ``flash.params``."""

    rule_id = "magic-latency"
    title = "no inline device latency constants"
    rationale = ("An inline 0.132507 stops tracking FlashParams; import "
                 "MSR_SSD_PARAMS (or take a params argument) so device "
                 "timing has one source of truth.")
    scope = None  # everywhere except the definition site below

    #: the parameter definition site and this rule's own lookup table
    exempt_modules = ("repro.flash.params", "repro.check.rules.constants")

    def check(self, summary: ModuleSummary) -> Iterator[Violation]:
        if summary.module in self.exempt_modules:
            return
        for node in ast.walk(summary.tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, float) \
                    and node.value in LATENCY_CONSTANTS:
                meaning = LATENCY_CONSTANTS[node.value]
                yield self.violation(
                    summary, node.lineno,
                    f"inline latency constant {node.value} duplicates "
                    f"{meaning}; use repro.flash.params")


RULES = [MagicLatency]
