"""Whole-program determinism & contract analysis (``repro.check.flow``).

The per-file lint rules (:mod:`repro.check.rules`) catch *syntactic*
hazards; the determinism probes catch drift *after the fact* by
double-running workloads.  Between them sat a gap: an unseeded RNG or
wall-clock read can travel through three call layers into a QoS report
and be caught -- if at all -- only by a golden-snapshot diff.  This
package closes the gap with an interprocedural static analysis over
``src/repro``:

1. a **project model** -- import graph, symbol tables and an
   approximate call graph built by AST extraction plus name resolution
   (:mod:`~repro.check.flow.summary`, :mod:`~repro.check.flow.project`);
2. four **dataflow passes** over it:

   * ``flow-taint`` -- nondeterminism sources reachable from QoS
     reports, golden-snapshot writers or cache-key derivation, with
     the full sink-to-source call path
     (:mod:`~repro.check.flow.taint`);
   * ``seed-flow`` -- every RNG construction must derive its seed from
     threaded parameters, never literals or module constants
     (:mod:`~repro.check.flow.seedflow`);
   * ``pickle-safety`` -- parallel-runner cell payloads must be
     transitively picklable (:mod:`~repro.check.flow.picklesafety`);
   * ``contract-flow`` -- ``excluded=``/``faults=``/``masked_at``
     contracts must be forwarded to every callee that accepts them
     (:mod:`~repro.check.flow.contracts`);

3. **reporting**: JSON and SARIF for code-scanning annotations
   (:mod:`~repro.check.flow.sarif`); ``# repro: allow[...]`` line
   pragmas are the one suppression mechanism, and any finding left
   fails the gate (:mod:`~repro.check.flow.engine`).

The per-file extraction is shared with the lint rules: one parse and
one hazard table serve both.

Run it via ``python -m repro.check --all``; see ``docs/checking.md``.
"""

from __future__ import annotations

from repro.check.flow.config import PASS_CATALOG, PASS_IDS, FlowConfig
from repro.check.flow.contracts import ContractFlowPass
from repro.check.flow.engine import (ALL_PASSES, FlowReport, analyze,
                                     build_model, run_passes)
from repro.check.flow.findings import Finding, TraceStep
from repro.check.flow.picklesafety import PickleSafetyPass
from repro.check.flow.project import CallEdge, ProjectModel
from repro.check.flow.sarif import sarif_json, to_sarif
from repro.check.flow.seedflow import SeedFlowPass
from repro.check.flow.summary import ModuleSummary, summarize_source
from repro.check.flow.taint import TaintPass

__all__ = [
    "ALL_PASSES",
    "CallEdge",
    "ContractFlowPass",
    "Finding",
    "FlowConfig",
    "FlowReport",
    "ModuleSummary",
    "PASS_CATALOG",
    "PASS_IDS",
    "PickleSafetyPass",
    "ProjectModel",
    "SeedFlowPass",
    "TaintPass",
    "TraceStep",
    "analyze",
    "build_model",
    "run_passes",
    "sarif_json",
    "summarize_source",
    "to_sarif",
]
