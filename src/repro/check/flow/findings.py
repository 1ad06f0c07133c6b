"""Findings: what the dataflow passes report.

A :class:`Finding` is one violation of a whole-program property, anchored
at a source location and optionally carrying the call-graph *trace* that
explains it (for taint findings, the sink-to-source path).  Findings are
value objects with a stable sort order and a content *fingerprint* (the
SARIF ``partialFingerprints`` entry) that deliberately excludes the line
number, so code-scanning tracks a finding across edits that shift it.

The one suppression mechanism is the ``# repro: allow[<pass-id>]``
pragma on the anchor line (or the line above), exactly like the lint
rules; every finding that survives its pragmas fails the gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["TraceStep", "Finding"]


@dataclass(frozen=True)
class TraceStep:
    """One hop of a call-graph path explaining a finding."""

    path: str
    line: int
    symbol: str
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line,
                "symbol": self.symbol, "note": self.note}

    def render(self) -> str:
        note = f" ({self.note})" if self.note else ""
        return f"{self.path}:{self.line} {self.symbol}{note}"


@dataclass(frozen=True)
class Finding:
    """One violation reported by a dataflow pass."""

    pass_id: str
    path: str
    line: int
    symbol: str
    message: str
    trace: Tuple[TraceStep, ...] = field(default_factory=tuple)

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.pass_id, self.message)

    def fingerprint(self) -> str:
        """Stable content address; excludes the line number on purpose."""
        payload = json.dumps(
            [self.pass_id, self.path, self.symbol, self.message],
            separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_id,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint(),
            "trace": [s.to_dict() for s in self.trace],
        }

    def render(self) -> str:
        lines = [f"{self.path}:{self.line}: [{self.pass_id}] "
                 f"{self.symbol}: {self.message}"]
        for step in self.trace:
            lines.append(f"    via {step.render()}")
        return "\n".join(lines)
