"""Seed-flow: every RNG construction must be threadable from params.

The repository's reproducibility story hinges on one discipline: a
random stream is a pure function of an integer seed that the caller
-- ultimately the experiment harness -- controls.  The extraction
layer classifies the seed expression of every ``default_rng`` /
``Random`` / ``RandomState`` / ``SeedSequence`` construction by a
local def-use scan; this pass flags the constructions whose entropy
provably does *not* flow in through the enclosing function's
parameters:

* ``missing``  -- no seed at all (OS entropy; never reproduces);
* ``constant`` -- a literal at the construction site (cannot be swept
  or varied by the harness: the hidden-pin bug);
* ``module-const`` -- a module-level constant, same problem one
  indirection later;
* any construction at module import time (no parameters exist to
  thread a seed through).

Parameter-derived seeds -- including ``self.seed`` attributes and
locals computed from parameters (``seed ^ 0x5EED``, spawned
sequences) -- pass.  ``seed_from == "other"`` (locals of unknown
provenance) is deliberately not flagged: the goal is zero noisy
findings, since every finding fails the gate.

Suppress a deliberate fixed stream with ``# repro: allow[seed-flow]``.
"""

from __future__ import annotations

from typing import List

from repro.check.flow.config import FlowConfig
from repro.check.flow.findings import Finding
from repro.check.flow.project import ProjectModel
from repro.check.flow.summary import MODULE_BODY

__all__ = ["SeedFlowPass"]

PASS_ID = "seed-flow"

_FLAGGED = {
    "missing": "is constructed without a seed (entropy-seeded)",
    "constant": "pins its seed to a literal constant",
    "module-const": "takes its seed from a module constant",
}


class SeedFlowPass:
    """Flag RNGs whose seed cannot be threaded from experiment params."""

    pass_id = PASS_ID

    def run(self, model: ProjectModel,
            config: FlowConfig) -> List[Finding]:
        findings: List[Finding] = []
        for summary in model.modules.values():
            for fn in summary.functions:
                at_module = fn.qualname == MODULE_BODY
                for rng in fn.rngs:
                    if at_module:
                        reason = ("is constructed at module import "
                                  "time, where no seed parameter can "
                                  "reach it")
                    elif rng.seed_from in _FLAGGED:
                        reason = _FLAGGED[rng.seed_from]
                    else:
                        continue
                    if summary.is_allowed((PASS_ID, "unseeded-rng"),
                                          rng.line):
                        continue
                    symbol = summary.module if at_module \
                        else fn.qualname
                    detail = f" [{rng.detail}]" if rng.detail else ""
                    findings.append(Finding(
                        pass_id=PASS_ID, path=summary.path,
                        line=rng.line, symbol=symbol,
                        message=(f"{rng.kind}(...) {reason}; thread "
                                 f"the seed through a parameter "
                                 f"derived from experiment "
                                 f"params{detail}")))
        findings.sort(key=Finding.sort_key)
        return findings
