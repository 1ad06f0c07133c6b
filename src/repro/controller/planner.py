"""Re-replication planning: mined patterns -> budgeted placement deltas.

The offline loop (``experiments/common.play_workload``) swaps the whole
data-block -> design-block mapping at every interval boundary: the
matcher's fresh :class:`~repro.mining.matching.MatchResult` simply
replaces the previous one.  A live array cannot do that -- changing a
data block's design block means *re-replicating* the block onto the new
design block's device set, which costs migration bandwidth the array
would rather spend on foreground traffic.

:class:`ReplicationPlanner` closes the gap: it diffs the matcher's
target mapping against the placement currently in force, orders the
resulting :class:`PlacementDelta` moves by mined support (highest
first -- the pairs most likely to recur are re-replicated first, the
paper's Fig 11 persistence argument), and applies at most
``migration_budget`` moves per boundary.  Unfunded moves are *deferred*:
the block keeps its current design block, and the next boundary's diff
picks the move up again if the pattern persists.

With ``migration_budget=None`` (unlimited) and no failed modules the
plan reproduces the offline swap exactly -- ``plan(...).mapping`` *is*
the target :class:`~repro.mining.matching.MatchResult` -- which is the
identity the controller's determinism probe locks down.

Fault awareness (``excluded=`` dead modules, from
:meth:`repro.faults.FaultSchedule.masked_at`):

* a delta is **blocked** when its target design block touches a dead
  module -- the array never re-replicates onto dead hardware;
* a block whose *current* design block has lost every replica device is
  **rescued**: moved (ahead of any pattern-driven delta) to the
  healthiest design block available, even if the matcher did not ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.allocation.base import AllocationScheme
from repro.mining.itemsets import ItemsetCounts
from repro.mining.matching import MatchResult

__all__ = ["PlacementDelta", "ReplicationPlan", "ReplicationPlanner",
           "pair_support_by_block"]


def pair_support_by_block(itemsets: ItemsetCounts) -> Dict[int, int]:
    """Each block's strongest mined pair support.

    The planner orders deltas by this value -- a block in a
    high-support pair is the one most worth re-replicating first.
    :meth:`~repro.mining.itemsets.ItemsetCounts.pairs` serves the rows
    by descending support, so a block's first row holds its maximum.
    """
    support: Dict[int, int] = {}
    for a, b, s in itemsets.pairs():
        support.setdefault(a, s)
        support.setdefault(b, s)
    return support


class PlacementDelta(NamedTuple):
    """One data-block move: re-replicate ``block`` onto ``new``.

    ``old`` is the design block the data currently lives on (explicit
    mapping or the modulo fallback); ``support`` is the mined pair
    support that motivated the move (0 for evictions back to the
    modulo fallback and for rescues); ``rescue`` marks moves forced by
    a fully-dead current design block rather than by mining.  A named
    tuple, because a boundary builds hundreds of them.
    """

    block: int
    old: int
    new: int
    support: int = 0
    rescue: bool = False

    def sort_key(self) -> Tuple[int, int, int]:
        # rescues first, then strongest support, then stable by block
        return (0 if self.rescue else 1, -self.support, self.block)


@dataclass
class ReplicationPlan:
    """Outcome of one planning round (one interval boundary).

    ``applied`` moves fit the migration budget and were folded into
    ``mapping``; ``deferred`` ran out of budget (the block keeps its
    current design block); ``blocked`` would have re-replicated onto
    dead modules and were vetoed.  ``cost`` is the migration spend in
    replica-copy units: each applied move writes ``replication`` new
    copies.
    """

    applied: List[PlacementDelta]
    deferred: List[PlacementDelta]
    blocked: List[PlacementDelta]
    mapping: MatchResult
    cost: int


class ReplicationPlanner:
    """Diff placements into budgeted, fault-aware migration plans.

    Parameters
    ----------
    allocation:
        Supplies each design block's device set (for the dead-module
        veto) and the replication factor (for migration cost).
    migration_budget:
        Maximum data-block moves applied per planning round;
        ``None`` = unlimited (the offline swap).
    """

    def __init__(self, allocation: AllocationScheme,
                 migration_budget: Optional[int] = None):
        if migration_budget is not None and migration_budget < 0:
            raise ValueError("migration_budget must be >= 0")
        self.allocation = allocation
        self.migration_budget = migration_budget
        self._device_sets = [frozenset(allocation.devices_for(b))
                             for b in range(allocation.n_buckets)]

    # -- fault geometry ----------------------------------------------------
    def _live_devices(self, design_block: int,
                      excluded: FrozenSet[int]) -> FrozenSet[int]:
        return self._device_sets[design_block] - excluded

    def _touches_dead(self, design_block: int,
                      excluded: FrozenSet[int]) -> bool:
        return bool(self._device_sets[design_block] & excluded)

    def _healthiest(self, excluded: FrozenSet[int]) -> int:
        """Deterministic rescue target: the lowest-numbered design
        block with the most live devices (fully-live wins)."""
        best, best_live = 0, -1
        for db in range(self.allocation.n_buckets):
            live = len(self._live_devices(db, excluded))
            if live > best_live:
                best, best_live = db, live
        return best

    # -- planning ----------------------------------------------------------
    def diff(self, target: MatchResult, current: MatchResult,
             supports: Optional[Dict[int, int]] = None,
             ) -> List[PlacementDelta]:
        """The raw move list turning ``current`` into ``target``.

        Blocks the matcher newly places (or re-places) become moves
        with their mined support; blocks the matcher dropped revert to
        the modulo fallback as support-0 evictions.  Blocks whose
        assignment is unchanged produce no move -- re-matching a block
        to the design block it already occupies costs nothing.
        """
        supports = supports or {}
        placed, n = current.mapping, current.n_design_blocks
        # (-support, block, old, new) rows sort in sort_key order: a
        # diff makes no rescues, and no block moves twice
        rows: List[Tuple[int, int, int, int]] = []
        for block, new in target.mapping.items():
            old = placed.get(block, block % n)
            if old != new:
                rows.append((-int(supports.get(block, 0)), block, old,
                             new))
        for block, old in placed.items():
            if block in target.mapping:
                continue
            fallback = block % target.n_design_blocks
            if old != fallback:
                rows.append((0, block, old, fallback))
        rows.sort()
        return [PlacementDelta(block, old, new, -negated)
                for negated, block, old, new in rows]

    def plan(self, target: MatchResult, current: MatchResult,
             supports: Optional[Dict[int, int]] = None,
             excluded: FrozenSet[int] = frozenset()) -> ReplicationPlan:
        """One planning round: diff, veto, rescue, budget, apply.

        ``excluded`` is the dead-module set in force at the boundary
        (:meth:`repro.faults.FaultSchedule.masked_at`); the plan never
        re-replicates onto a design block touching it.  With no budget
        and no exclusions the result *is* ``target``.
        """
        excluded = frozenset(excluded)
        if not excluded and self.migration_budget is None:
            deltas = self.diff(target, current, supports)
            cost = len(deltas) * self.allocation.replication
            return ReplicationPlan(applied=deltas, deferred=[],
                                   blocked=[], mapping=target,
                                   cost=cost)

        deltas = self.diff(target, current, supports)
        # Veto moves onto dead hardware; the block stays where it is.
        candidates: List[PlacementDelta] = []
        blocked: List[PlacementDelta] = []
        for d in deltas:
            if excluded and self._touches_dead(d.new, excluded):
                blocked.append(d)
            else:
                candidates.append(d)
        # Rescue blocks stranded on fully-dead design blocks that no
        # surviving candidate move already saves.
        if excluded:
            moved = {d.block for d in candidates}
            rescue_target = self._healthiest(excluded)
            rescues: List[PlacementDelta] = []
            for block, db in sorted(current.mapping.items()):
                if block in moved:
                    continue
                if self._live_devices(db, excluded):
                    continue
                if not self._live_devices(rescue_target, excluded):
                    break  # nowhere live to go; nothing to rescue onto
                rescues.append(PlacementDelta(
                    block=block, old=db, new=rescue_target,
                    rescue=True))
            candidates = rescues + candidates
        # Spend the budget in priority order.
        budget = self.migration_budget
        if budget is None or budget >= len(candidates):
            applied, deferred = candidates, []
        else:
            applied, deferred = candidates[:budget], candidates[budget:]

        mapping = dict(current.mapping)
        for d in applied:
            if d.new == d.block % target.n_design_blocks \
                    and d.block not in target.mapping:
                mapping.pop(d.block, None)  # eviction: back to modulo
            else:
                mapping[d.block] = d.new
        # Matched-block bookkeeping follows the *mining* knowledge --
        # deferral delays data movement, not what the miner learned.
        result = MatchResult(mapping, target.matched_blocks,
                             target.n_design_blocks)
        cost = len(applied) * self.allocation.replication
        return ReplicationPlan(applied=applied, deferred=deferred,
                               blocked=blocked, mapping=result,
                               cost=cost)
