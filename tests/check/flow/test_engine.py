"""Engine: whole-tree analysis, the gate, the performance budget."""

import time

import pytest

from repro.check.flow import FlowConfig, analyze
from repro.check.report import default_src_root

SRC_ROOT = default_src_root()


# -- the real tree -------------------------------------------------------

def test_src_tree_is_clean_under_empty_baseline(tree_checks):
    report = tree_checks.flow
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings)
    assert report.clean
    assert report.files_analyzed > 100


def test_performance_budget_cold():
    t0 = time.perf_counter()
    analyze(SRC_ROOT)
    cold_s = time.perf_counter() - t0
    assert cold_s < 10.0, f"cold analysis took {cold_s:.2f}s"


# -- the gate ------------------------------------------------------------

@pytest.fixture
def dirty_tree(tmp_path):
    src = tmp_path / "src"
    pkg = src / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "bad.py").write_text(
        "import numpy as np\n\n"
        "def make():\n"
        "    return np.random.default_rng(42)\n")
    return src


def test_report_dict_shape(dirty_tree):
    report = analyze(dirty_tree)
    data = report.to_dict()
    assert {p["id"] for p in data["passes"]} == {
        "flow-taint", "seed-flow", "pickle-safety", "contract-flow"}
    assert data["clean"] is False
    (finding,) = data["findings"]
    assert finding["pass"] == "seed-flow"
    assert finding["fingerprint"]


def test_pass_subset_and_custom_config(dirty_tree):
    from repro.check.flow import TaintPass

    report = analyze(dirty_tree,
                     config=FlowConfig(sink_roots=()),
                     passes=[TaintPass()])
    assert report.findings == []
