"""The live adaptive-replication controller (closing the loop online).

The paper's loop -- mine frequent block patterns per interval,
re-replicate between intervals -- exists offline in
:func:`repro.experiments.common.play_workload`: all placements are
computed up front and the whole trace is played once.
:class:`ReplicationController` runs the same loop *live*:

1. **stream** -- each trace part is fed into one long-running
   :class:`~repro.flash.driver.OnlineStreamSession`; traffic never
   stops at interval boundaries;
2. **mine** -- a :class:`~repro.controller.boundary.BoundaryStep`
   keeps each part's read columns as it is fed and mines them at the
   next boundary exactly as ``play_workload`` mines the previous part;
3. **plan** -- the step asks the
   :class:`~repro.controller.strategy.PlacementStrategy` for a target
   placement, and the
   :class:`~repro.controller.planner.ReplicationPlanner` diffs it
   against the live placement into budgeted, fault-aware migration
   deltas (never onto dead modules);
4. **apply** -- the new mapping takes effect for the next part's
   traffic mid-stream, and (when adapting) the statistical admission's
   ε is retuned from the observed delayed fraction
   (:class:`repro.core.adaptive.AdaptiveEpsilonController`).

Every boundary decision lands in an :class:`AuditRecord` (and on the
``controller.*`` observability counters), so a recorded run can be
audited delta by delta.

**Determinism contract** (asserted in tests and the ``controller``
probe): with an unlimited migration budget, no faults and the default
:class:`~repro.controller.strategy.FIMReplan` strategy, the controller
reproduces ``play_workload`` *byte-identically* -- same per-request
floats, same match rates -- because the streaming session replays the
offline heap order exactly and the boundary step mines each interval
with the oracle's own rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.controller.boundary import BoundaryStep
from repro.controller.strategy import PlacementStrategy
from repro.core.adaptive import AdaptiveEpsilonController
from repro.core.qos import QoSFlashArray, QoSReport
from repro.experiments.common import WorkloadRun
from repro.mining.transactions import check_window_ms
from repro.traces.records import Trace, check_part_arrivals

__all__ = ["ControllerConfig", "AuditRecord", "ControllerReport",
           "ReplicationController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Everything the controller needs to run, in one frozen record.

    Mirrors :func:`~repro.experiments.common.play_workload`'s
    parameters (so the identity contract is a like-for-like
    comparison) plus the live-loop knobs: ``migration_budget`` caps
    data-block moves per boundary and ``adapt_target_delayed_pct``
    switches on ε feedback (statistical mode on the fast engine only).
    """

    n_devices: int = 9
    replication: int = 3
    interval_ms: float = 0.133
    epsilon: float = 0.0
    fim_window_ms: float = 0.133
    min_support: int = 1
    seed: int = 0
    engine: str = "auto"
    accesses: Optional[int] = None
    migration_budget: Optional[int] = None
    adapt_target_delayed_pct: Optional[float] = None

    def __post_init__(self):
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        check_window_ms(self.fim_window_ms, "fim_window_ms")
        if self.adapt_target_delayed_pct is not None \
                and self.epsilon <= 0:
            raise ValueError(
                "adaptive epsilon requires statistical QoS "
                "(epsilon > 0)")
        if self.adapt_target_delayed_pct is not None \
                and self.engine == "des":
            raise ValueError(
                "adaptive epsilon needs the fast engine: engine='des' "
                "plays nothing before the drain, so every boundary "
                "would observe an empty interval")


@dataclass(frozen=True)
class AuditRecord:
    """One interval boundary's decisions, for the audit trail.

    ``part`` is the trace part *about to be played* when the decision
    was taken; ``epsilon`` is the admission ε in force after any
    adaptation; the delta counts describe the planning round (all zero
    for :class:`~repro.controller.strategy.StaticPlacement`).
    """

    part: int
    boundary_ms: float
    n_transactions: int
    n_itemsets: int
    replanned: bool
    deltas_applied: int
    deltas_deferred: int
    deltas_blocked: int
    migration_cost: int
    match_rate: float
    epsilon: float
    excluded: Tuple[int, ...] = ()


@dataclass
class ControllerReport:
    """Everything one live run produces.

    ``report``/``match_rates``/``part_of_request`` carry the exact
    shape of an offline :class:`~repro.experiments.common.WorkloadRun`
    (see :meth:`workload_run`); ``audit`` adds the boundary-by-boundary
    decision ledger unique to the live loop.
    """

    report: QoSReport
    match_rates: List[float]
    part_of_request: List[int]
    audit: List[AuditRecord]

    def workload_run(self) -> WorkloadRun:
        """The offline-comparable view (identity-contract currency)."""
        return WorkloadRun(report=self.report,
                           match_rates=self.match_rates,
                           part_of_request=self.part_of_request)

    @property
    def total_migration_cost(self) -> int:
        return sum(a.migration_cost for a in self.audit)


class ReplicationController:
    """Long-running array service: stream, mine, plan, apply.

    Parameters
    ----------
    config:
        The :class:`ControllerConfig` in force.
    strategy:
        A :class:`~repro.controller.strategy.PlacementStrategy`;
        default :class:`~repro.controller.strategy.FIMReplan` (the
        paper's loop).  :class:`~repro.controller.strategy.\
StaticPlacement` is the do-nothing baseline.
    faults:
        Optional :class:`repro.faults.FaultSchedule`; the planner
        reads its mask at each boundary and never re-replicates onto
        dead modules.
    """

    def __init__(self, config: ControllerConfig,
                 strategy: Optional[PlacementStrategy] = None,
                 faults=None):
        self.config = config
        self.faults = faults
        self.qos = QoSFlashArray(
            n_devices=config.n_devices,
            replication=config.replication,
            interval_ms=config.interval_ms,
            accesses=config.accesses,
            epsilon=config.epsilon,
            seed=config.seed,
            engine=config.engine,
            faults=faults)
        self.strategy = strategy
        self._adaptive: Optional[AdaptiveEpsilonController] = None
        if config.adapt_target_delayed_pct is not None:
            self._adaptive = AdaptiveEpsilonController(
                config.adapt_target_delayed_pct,
                epsilon0=config.epsilon)

    # -- boundary feedback -------------------------------------------------
    @staticmethod
    def _delayed_pct(played, start: int) -> float:
        """Observed delayed percentage over ``played[start:]`` (a
        :class:`~repro.flash.played.PlayedTable`)."""
        window = played[start:]
        counted = ~window.rejected
        total = int(np.count_nonzero(counted))
        delayed = int(np.count_nonzero(window.delayed & counted))
        return 100.0 * delayed / total if total else 0.0

    # -- the loop ----------------------------------------------------------
    def run(self, parts: Sequence[Trace]) -> ControllerReport:
        """Stream ``parts`` through the live loop; close it; report.

        The identity contract: with ``migration_budget=None``, no
        faults and the default strategy this equals
        ``play_workload(parts, ...)`` byte for byte.

        Every part's arrivals must be finite times ``>= 0`` in
        non-decreasing order (the session and the transaction windows
        assume arrival order, and a part's first arrival is its
        boundary); a part that is not raises ``ValueError`` naming the
        part and the first bad index, before anything is fed.
        """
        parts = list(parts)
        for part_idx, part in enumerate(parts):
            check_part_arrivals(part_idx, part.arrival_ms)
        cfg = self.config
        session_hook = obs.SESSION if obs.ACTIVE else None
        session = self.qos.online_player().session()
        step = BoundaryStep(self.qos.allocation, cfg.fim_window_ms,
                            cfg.min_support, strategy=self.strategy,
                            migration_budget=cfg.migration_budget)
        match_rates: List[float] = []
        part_of_request: List[int] = []
        audit: List[AuditRecord] = []
        played_mark = 0
        epsilon = cfg.epsilon
        for part_idx, part in enumerate(parts):
            boundary = float(part.arrival_ms[0]) if len(part) else 0.0
            if part_idx > 0:
                # -- close the previous interval --------------------------
                if session.fast:
                    # Serve everything due before this part's traffic;
                    # the observed delayed fraction below is then real.
                    session.advance(boundary)
                if self._adaptive is not None:
                    observed = self._delayed_pct(session.played,
                                                 played_mark)
                    epsilon = self._adaptive.update(observed)
                    session.admission.epsilon = epsilon
                    if session_hook is not None:
                        session_hook.on_controller("epsilon_update")
                played_mark = len(session.played)
                # -- mine, plan, apply ------------------------------------
                excluded = frozenset() if self.faults is None \
                    else self.faults.masked_at(boundary)
                n_transactions, itemsets, plan = step.boundary(excluded)
                applied, deferred, blocked, cost = ([], [], [], 0) \
                    if plan is None else \
                    (plan.applied, plan.deferred, plan.blocked, plan.cost)
                match_rates.append(step.match.match_rate(part.block))
                audit.append(AuditRecord(
                    part=part_idx, boundary_ms=boundary,
                    n_transactions=n_transactions,
                    n_itemsets=len(itemsets), replanned=plan is not None,
                    deltas_applied=len(applied),
                    deltas_deferred=len(deferred),
                    deltas_blocked=len(blocked), migration_cost=cost,
                    match_rate=match_rates[-1], epsilon=epsilon,
                    excluded=tuple(sorted(excluded))))
                if session_hook is not None:
                    session_hook.on_controller("boundary")
                    if plan is not None:
                        session_hook.on_controller("replan")
                        for event, deltas in (("delta_applied", applied),
                                              ("delta_deferred", deferred),
                                              ("delta_blocked", blocked)):
                            session_hook.on_controller(event, len(deltas))
                        session_hook.on_controller(
                            "rescue", sum(1 for d in applied if d.rescue))
            else:
                match_rates.append(0.0)
            # -- feed the part's traffic under the placement in force -----
            session.feed(part.arrival_ms, step.feed(part))
            part_of_request.extend([part_idx] * len(part))
        series, played = session.drain()
        report = QoSReport(series, played, self.qos.guarantee_ms)
        if session_hook is not None:
            session_hook.record_qos_report(report)
        return ControllerReport(report=report, match_rates=match_rates,
                                part_of_request=part_of_request,
                                audit=audit)
