"""CLI and report tests for ``python -m repro.check``."""

import json
import subprocess
import sys
from pathlib import Path

from repro.check.cli import main
from repro.check.report import default_src_root

SRC_ROOT = default_src_root()


def test_run_checks_lint_only_clean_tree(shared_run_checks):
    report = shared_run_checks(probe_workloads=[])
    assert report.lint.clean, report.lint.render()
    assert report.passed
    assert report.lint.files_checked > 100


def test_report_json_shape(shared_run_checks):
    report = shared_run_checks(probe_workloads=[])
    data = json.loads(report.to_json())
    assert data["tool"] == "repro.check"
    assert data["passed"] is True
    assert data["lint"]["clean"] is True
    rule_ids = {r["id"] for r in data["rules"]}
    assert len(rule_ids) >= 8
    assert {"unseeded-rng", "wall-clock", "set-iteration",
            "magic-latency", "mutable-default",
            "bare-except"} <= rule_ids


def test_cli_lint_only_exit_zero(shared_run_checks, capsys):
    assert main(["--lint-only", "--quiet"]) == 0


def test_cli_json_output(shared_run_checks, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--lint-only", "--quiet", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["determinism"] == []


def test_cli_with_probe(shared_run_checks, capsys):
    code = main(["--probe", "fig8", "--json", "-"])
    captured = capsys.readouterr()
    assert code == 0
    data, _ = json.JSONDecoder().raw_decode(captured.out)
    assert data["determinism"][0]["workload"] == "fig8"
    assert data["determinism"][0]["identical"] is True
    assert "PASSED" in captured.out


def test_cli_rejects_bad_src(tmp_path):
    assert main(["--src", str(tmp_path), "--lint-only"]) == 2


def test_cli_reports_violations_nonzero(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "bad.py").write_text(
        "try:\n    x = 1\nexcept:\n    pass\n")
    assert main(["--src", str(tmp_path), "--lint-only",
                 "--quiet"]) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check", "--lint-only", "--quiet"],
        cwd=str(Path(SRC_ROOT).parent), capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
