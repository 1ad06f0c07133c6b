"""The combined check report: lint + flow analysis + probes, as JSON.

``run_checks`` is the library face of ``python -m repro.check``; CI
consumes the JSON artefact, humans the rendered summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.check.determinism import DeterminismProbe, determinism_probe
from repro.check.flow.engine import FlowReport, run_passes
from repro.check.flow.project import ProjectModel
from repro.check.flow.summary import summarize_paths
from repro.check.lint import LintReport, lint_summaries
from repro.check.rules import rule_catalog

__all__ = ["CheckReport", "run_checks", "default_src_root"]

#: report format version, bumped on breaking JSON changes
SCHEMA_VERSION = 3


@dataclass
class CheckReport:
    """Everything one ``repro.check`` invocation produced."""

    lint: LintReport
    probes: List[DeterminismProbe]
    src_root: str
    #: whole-program analysis outcome (``--all``), or None if skipped
    flow: Optional[FlowReport] = None

    @property
    def passed(self) -> bool:
        return self.lint.clean \
            and all(p.identical for p in self.probes) \
            and (self.flow is None or self.flow.clean)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "repro.check",
            "src_root": self.src_root,
            "passed": self.passed,
            "lint": {
                "files_checked": self.lint.files_checked,
                "violations": [v.to_dict()
                               for v in self.lint.violations],
                "clean": self.lint.clean,
            },
            "rules": rule_catalog(),
            "determinism": [p.to_dict() for p in self.probes],
            "flow": self.flow.to_dict() if self.flow else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f"repro.check over {self.src_root}"]
        lines.append(f"  lint: {len(self.lint.violations)} violation(s) "
                     f"in {self.lint.files_checked} file(s), "
                     f"{len(rule_catalog())} rules")
        for v in self.lint.violations:
            lines.append("    " + v.render())
        if self.flow is not None:
            lines.append(self.flow.render())
        for p in self.probes:
            mark = "ok" if p.identical else "FAIL"
            lines.append(f"  determinism[{p.workload}]: {mark} -- "
                         f"{p.detail}")
        lines.append("PASSED" if self.passed else "FAILED")
        return "\n".join(lines)


def default_src_root() -> Path:
    """The ``src`` directory this installation was imported from."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def run_checks(src_root: Optional[Path] = None,
               probe_workloads: Optional[List[str]] = None,
               seed: int = 0, runs: int = 2,
               flow: bool = False) -> CheckReport:
    """Lint the tree, optionally flow-analyze it, and run the probes.

    The tree is walked once and each file parsed once: the same
    summaries feed the lint rules and, with ``flow``, the
    whole-program passes.

    Parameters
    ----------
    src_root:
        Directory containing the ``repro`` package (default: the one
        this interpreter imported).
    probe_workloads:
        Probe names from
        :data:`repro.check.determinism.PROBE_WORKLOADS`; ``[]``
        disables probing, ``None`` runs the default (``fig8``).
    flow:
        Run the whole-program analysis (:mod:`repro.check.flow`).
    """
    root = Path(src_root) if src_root is not None else default_src_root()
    summaries = list(summarize_paths(root))
    lint = lint_summaries(summaries)
    flow_report = run_passes(ProjectModel(summaries)) if flow else None
    names = ["fig8"] if probe_workloads is None else probe_workloads
    probes = [determinism_probe(name, seed=seed, runs=runs)
              for name in names]
    return CheckReport(lint=lint, probes=probes, src_root=str(root),
                       flow=flow_report)
