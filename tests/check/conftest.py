"""One whole-tree analysis for the read-only ``repro.check`` CLI tests.

Parsing, linting and flow-analysing the real ``src`` tree takes one to
two seconds, and the CLI and report tests only read the result.  They
share one session-scoped :func:`~repro.check.report.run_checks` result
through :func:`shared_run_checks`; the tests that measure the analysis
itself (``test_run_checks_parses_each_file_once``,
``test_performance_budget_cold``) and the subprocess entry-point test
keep their own runs.
"""

from pathlib import Path

import pytest

from repro.check import cli
from repro.check.determinism import determinism_probe
from repro.check.report import CheckReport, default_src_root, run_checks


@pytest.fixture(scope="session")
def tree_checks() -> CheckReport:
    """Lint and flow analysis of the real tree, no probes: once."""
    return run_checks(probe_workloads=[], flow=True)


@pytest.fixture
def shared_run_checks(tree_checks, monkeypatch):
    """``run_checks`` that answers the real tree from
    :func:`tree_checks` (probes still run per call), also patched into
    the CLI; any other tree is analysed afresh."""

    def checks(src_root=None, probe_workloads=None, seed=0, runs=2,
               flow=False):
        root = Path(src_root) if src_root is not None \
            else default_src_root()
        if root.resolve() != Path(tree_checks.src_root).resolve():
            return run_checks(root, probe_workloads, seed, runs, flow)
        names = ["fig8"] if probe_workloads is None else probe_workloads
        return CheckReport(
            lint=tree_checks.lint,
            probes=[determinism_probe(name, seed=seed, runs=runs)
                    for name in names],
            src_root=tree_checks.src_root,
            flow=tree_checks.flow if flow else None)

    monkeypatch.setattr(cli, "run_checks", checks)
    return checks
