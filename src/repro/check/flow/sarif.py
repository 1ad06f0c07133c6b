"""SARIF 2.1.0 export: findings as GitHub code-scanning annotations.

One run, one tool (``repro.check.flow``), one rule per analysis pass.
Taint findings carry their sink-to-source call path as a ``codeFlow``
so the annotation shows *why* a line is a problem, not just where.
Output is deterministic: findings arrive pre-sorted and the emitter
adds nothing environment-dependent (no timestamps, no absolute
paths).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.check.flow.config import PASS_CATALOG, PASS_IDS
from repro.check.flow.findings import Finding

__all__ = ["to_sarif", "sarif_json"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def _location(path: str, line: int,
              message: str = "") -> Dict[str, object]:
    loc: Dict[str, object] = {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {"startLine": max(1, line)},
        },
    }
    if message:
        loc["message"] = {"text": message}
    return loc


def _result(finding: Finding) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.pass_id,
        "level": "error",
        "message": {"text": f"{finding.symbol}: {finding.message}"},
        "locations": [_location(finding.path, finding.line)],
        "partialFingerprints": {
            "reproFlow/v1": finding.fingerprint(),
        },
    }
    if finding.trace:
        result["codeFlows"] = [{
            "threadFlows": [{
                "locations": [
                    {"location": _location(step.path, step.line,
                                           step.symbol
                                           + (f" ({step.note})"
                                              if step.note else ""))}
                    for step in finding.trace],
            }],
        }]
    return result


def to_sarif(findings: Sequence[Finding]) -> Dict[str, object]:
    """The SARIF log document for one analysis run."""
    rules: List[Dict[str, object]] = []
    for pass_id in PASS_IDS:
        title, rationale = PASS_CATALOG[pass_id]
        rules.append({
            "id": pass_id,
            "shortDescription": {"text": title},
            "fullDescription": {"text": rationale},
            "defaultConfiguration": {"level": "error"},
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.check.flow",
                    "informationUri":
                        "https://example.invalid/repro/docs/checking",
                    "rules": rules,
                },
            },
            "results": [_result(f) for f in findings],
            "columnKind": "utf16CodeUnits",
        }],
    }


def sarif_json(findings: Sequence[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True)
