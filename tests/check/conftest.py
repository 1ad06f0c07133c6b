"""``run_checks`` answered from the session's one whole-tree analysis.

The CLI and report tests only read the lint and flow results of the
real ``src`` tree, so :func:`shared_run_checks` serves them from the
session-scoped ``tree_checks`` fixture (``tests/conftest.py``).
"""

from pathlib import Path

import pytest

from repro.check import cli
from repro.check.determinism import determinism_probe
from repro.check.report import CheckReport, default_src_root, run_checks


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
