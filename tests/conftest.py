"""One parse of the real ``src`` tree for every test that reads it.

Parsing the tree into :class:`~repro.check.flow.summary.ModuleSummary`
facts takes about a second, and linting and flow-analysing it about as
much again.  The lint gate, the flow gate, the ``repro.check`` CLI
tests and the module census only read the result, so they share these
session-scoped fixtures; the tests that measure the analysis itself
(``test_run_checks_parses_each_file_once``,
``test_performance_budget_cold``) and the subprocess entry-point test
keep their own runs.
"""

from typing import List

import pytest

from repro.check.flow.engine import run_passes
from repro.check.flow.project import ProjectModel
from repro.check.flow.summary import ModuleSummary, summarize_paths
from repro.check.lint import lint_summaries
from repro.check.report import CheckReport, default_src_root


@pytest.fixture(scope="session")
def tree_summaries() -> List[ModuleSummary]:
    """Every module under ``src``, summarized once."""
    return list(summarize_paths(default_src_root()))


@pytest.fixture(scope="session")
def tree_checks(tree_summaries) -> CheckReport:
    """Lint and flow analysis of the real tree, no probes: what
    ``run_checks(probe_workloads=[], flow=True)`` returns, once."""
    return CheckReport(lint=lint_summaries(tree_summaries), probes=[],
                       src_root=str(default_src_root()),
                       flow=run_passes(ProjectModel(tree_summaries)))
