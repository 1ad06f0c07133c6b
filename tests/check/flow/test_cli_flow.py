"""CLI surface of the flow analysis: --all, --format, --sarif."""

import json

import pytest

from repro.check.cli import main
from repro.check.report import run_checks


@pytest.fixture
def dirty_src(tmp_path):
    src = tmp_path / "src"
    pkg = src / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "bad.py").write_text(
        "import numpy as np\n\n"
        "def make():\n"
        "    return np.random.default_rng(42)\n")
    return src


def flags(tmp_path, src):
    return ["--src", str(src), "--quiet"]


def test_all_on_real_tree_passes(shared_run_checks, tmp_path):
    assert main(["--all", "--quiet"]) == 0


def test_all_flag_runs_flow_section(shared_run_checks, capsys):
    assert main(["--all"]) == 0
    out = capsys.readouterr().out
    assert "flow:" in out
    assert "PASSED" in out


def test_finding_fails_the_gate(tmp_path, dirty_src):
    assert main(["--all", *flags(tmp_path, dirty_src)]) == 1


def test_format_json_emits_flow_section(tmp_path, dirty_src, capsys):
    main(["--all", "--format", "json", *flags(tmp_path, dirty_src)])
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False
    (finding,) = data["flow"]["findings"]
    assert finding["pass"] == "seed-flow"


def test_format_sarif_and_artifact(tmp_path, dirty_src, capsys):
    artifact = tmp_path / "out" / "flow.sarif"
    main(["--all", "--format", "sarif", "--sarif", str(artifact),
          *flags(tmp_path, dirty_src)])
    stdout_doc = json.loads(capsys.readouterr().out)
    file_doc = json.loads(artifact.read_text())
    assert stdout_doc == file_doc
    (result,) = file_doc["runs"][0]["results"]
    assert result["ruleId"] == "seed-flow"


def test_run_checks_flow_report_integration(tmp_path, dirty_src):
    report = run_checks(src_root=dirty_src, probe_workloads=[],
                        flow=True)
    assert report.flow is not None
    assert not report.passed
    assert "flow:" in report.render()


def test_without_all_flow_section_is_absent(shared_run_checks):
    report = shared_run_checks(probe_workloads=[])
    assert report.flow is None
    assert report.to_dict()["flow"] is None


def test_run_checks_parses_each_file_once(monkeypatch):
    import ast

    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = run_checks(probe_workloads=[], flow=True)
    assert report.passed
    assert len(parsed) == report.lint.files_checked
    assert len(parsed) == len(set(parsed))
    assert report.flow.files_analyzed == report.lint.files_checked
