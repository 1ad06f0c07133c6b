"""The analysis engine: summaries in, passes run, one report out.

``analyze`` is the library entry point behind ``python -m repro.check
--all``: it summarizes every file under the source tree
(:func:`~repro.check.flow.summary.summarize_paths`), builds the
:class:`~repro.check.flow.project.ProjectModel` and runs the four
registered passes.  ``run_checks`` shares those summaries with the
lint rules instead, so each file is parsed once per invocation, and
calls :func:`run_passes` on the model directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.flow.config import PASS_CATALOG, FlowConfig
from repro.check.flow.contracts import ContractFlowPass
from repro.check.flow.findings import Finding
from repro.check.flow.picklesafety import PickleSafetyPass
from repro.check.flow.project import ProjectModel
from repro.check.flow.seedflow import SeedFlowPass
from repro.check.flow.summary import summarize_paths
from repro.check.flow.taint import TaintPass

__all__ = ["FlowReport", "analyze", "build_model", "run_passes",
           "ALL_PASSES"]

ALL_PASSES = (TaintPass(), SeedFlowPass(), PickleSafetyPass(),
              ContractFlowPass())


@dataclass
class FlowReport:
    """Outcome of one whole-program analysis."""

    findings: List[Finding]
    files_analyzed: int
    #: wall time of the passes (model resolution included)
    seconds: float
    passes: Tuple[str, ...] = field(
        default_factory=lambda: tuple(p.pass_id for p in ALL_PASSES))

    @property
    def clean(self) -> bool:
        """True iff no finding survived its pragmas."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "passes": [
                {"id": pass_id,
                 "title": PASS_CATALOG[pass_id][0],
                 "rationale": PASS_CATALOG[pass_id][1]}
                for pass_id in self.passes],
            "files_analyzed": self.files_analyzed,
            "seconds": round(self.seconds, 3),
            "findings": [f.to_dict() for f in self.findings],
            "clean": self.clean,
        }

    def render(self) -> str:
        lines = [f"  flow: {len(self.findings)} finding(s) across "
                 f"{self.files_analyzed} file(s), {self.seconds:.2f}s"]
        for f in self.findings:
            for line in f.render().splitlines():
                lines.append("    " + line)
        return "\n".join(lines)


def build_model(src_root: Path) -> ProjectModel:
    """Project model only (no passes) -- the test-fixture entry point."""
    return ProjectModel(list(summarize_paths(Path(src_root))))


def run_passes(model: ProjectModel,
               config: Optional[FlowConfig] = None,
               passes: Optional[Sequence] = None) -> FlowReport:
    """Run ``passes`` (default: all four) over a built model."""
    t0 = time.perf_counter()
    cfg = config if config is not None else FlowConfig()
    findings: List[Finding] = []
    for pass_obj in (passes if passes is not None else ALL_PASSES):
        findings.extend(pass_obj.run(model, cfg))
    findings.sort(key=Finding.sort_key)
    return FlowReport(findings=findings,
                      files_analyzed=len(model.modules),
                      seconds=time.perf_counter() - t0)


def analyze(src_root: Path,
            config: Optional[FlowConfig] = None,
            passes: Optional[Sequence] = None) -> FlowReport:
    """Run the whole-program analysis over ``src_root``."""
    return run_passes(build_model(src_root), config, passes)
