"""SARIF export: structure, code flows, determinism."""

import json
import textwrap

from repro.check.flow import (FlowConfig, TaintPass, sarif_json,
                              to_sarif)
from repro.check.flow.config import PASS_IDS
from tests.check.flow._fixtures import model_of

SOURCES = {"app.m": textwrap.dedent("""
    import time

    def leaf():
        return time.time()

    def report():
        return leaf()
""").lstrip()}


def findings():
    return TaintPass().run(model_of(dict(SOURCES)),
                           FlowConfig(sink_roots=("app.m:report",)))


def test_sarif_document_shape():
    doc = to_sarif(findings())
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro.check.flow"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == \
        set(PASS_IDS)
    (result,) = run["results"]
    assert result["ruleId"] == "flow-taint"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "app/m.py"
    assert loc["region"]["startLine"] == 4
    assert result["partialFingerprints"]["reproFlow/v1"]


def test_sarif_code_flow_carries_the_trace():
    (result,) = to_sarif(findings())["runs"][0]["results"]
    steps = result["codeFlows"][0]["threadFlows"][0]["locations"]
    symbols = [s["location"]["message"]["text"] for s in steps]
    assert symbols == ["report (sink root)", "leaf"]


def test_sarif_json_is_deterministic_and_parseable():
    first = sarif_json(findings())
    second = sarif_json(findings())
    assert first == second
    json.loads(first)


def test_empty_findings_still_produce_valid_sarif():
    doc = to_sarif([])
    assert doc["runs"][0]["results"] == []
    assert len(doc["runs"][0]["tool"]["driver"]["rules"]) == 4
