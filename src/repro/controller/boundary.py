"""One array's interval boundary: mine the interval just fed, re-map.

The paper's adaptive loop (§IV-A) mines the frequent pairs of the
interval just played and re-matches data blocks to design blocks at
every boundary.  :class:`BoundaryStep` runs it for one array: the live
controller owns one step, the sharded cluster one per array.  It
mines the interval's read columns with
:func:`repro.mining.pairs.pair_counts`, which counts items and pairs
on arrays and returns exactly what the offline oracle's rule --
``apriori(transactions_from_arrays(...), min_support, max_size=2)``,
which :func:`repro.experiments.common.play_workload` runs over the
previous part -- returns.  So an interval with no reads mines nothing
and the default :class:`~repro.controller.strategy.FIMReplan` target
is the all-modulo fallback, as offline.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.allocation.base import AllocationScheme
from repro.controller.planner import (
    ReplicationPlan,
    ReplicationPlanner,
    pair_support_by_block,
)
from repro.controller.strategy import FIMReplan, PlacementStrategy
from repro.mining.itemsets import ItemsetCounts
from repro.mining.matching import FIMBlockMatcher, MatchResult
from repro.mining.pairs import pair_counts
from repro.mining.transactions import check_window_ms
from repro.traces.records import Trace

__all__ = ["BoundaryStep"]


class BoundaryStep:
    """Feed, mine, plan and re-map for one array, over one run.

    ``fim_window_ms`` (a finite number ``> 0``) and ``min_support``
    are ``play_workload``'s;
    ``strategy`` (reset here) defaults to
    :class:`~repro.controller.strategy.FIMReplan` on ``allocation``;
    ``migration_budget`` caps the moves per boundary (``None`` is
    unlimited).
    """

    def __init__(self, allocation: AllocationScheme,
                 fim_window_ms: float = 0.133, min_support: int = 1,
                 strategy: Optional[PlacementStrategy] = None,
                 migration_budget: Optional[int] = None):
        check_window_ms(fim_window_ms, "fim_window_ms")
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        self.fim_window_ms = fim_window_ms
        self.min_support = min_support
        self.strategy = strategy if strategy is not None \
            else FIMReplan(FIMBlockMatcher(allocation))
        self.strategy.reset()
        self.planner = ReplicationPlanner(
            allocation, migration_budget=migration_budget)
        #: the placement in force
        self.match = MatchResult.empty(allocation.n_buckets)
        self._arrivals: List[np.ndarray] = []
        self._blocks: List[np.ndarray] = []

    def feed(self, trace: Trace) -> List[int]:
        """The design bucket of each of ``trace``'s requests, keeping
        its reads for the next :meth:`boundary`."""
        blocks = np.asarray(trace.block, dtype=np.int64)
        reads = np.asarray(trace.is_read, dtype=bool)
        self._arrivals.append(
            np.asarray(trace.arrival_ms, dtype=np.float64)[reads])
        self._blocks.append(blocks[reads])
        uniq, inverse = np.unique(blocks, return_inverse=True)
        # MatchResult.design_block_of, once per distinct block
        placed, n = self.match.mapping.get, self.match.n_design_blocks
        lut = np.array([placed(b, b % n) for b in uniq.tolist()],
                       dtype=np.int64)
        return lut[inverse].tolist()

    def boundary(self, excluded: FrozenSet[int] = frozenset(),
                 ) -> Tuple[int, ItemsetCounts, Optional[ReplicationPlan]]:
        """Mine the reads fed since the last boundary, plan the move
        away from dead modules ``excluded`` and install the mapping.

        Returns ``(n_transactions, itemsets, plan)``; ``plan`` is
        ``None`` when the strategy keeps the current placement.
        """
        arrivals = np.concatenate([np.zeros(0)] + self._arrivals)
        blocks = np.concatenate([np.zeros(0, np.int64)] + self._blocks)
        self._arrivals, self._blocks = [], []
        itemsets = pair_counts(arrivals, blocks, self.fim_window_ms,
                               self.min_support)
        target = self.strategy.propose(itemsets, self.match)
        plan = None
        if target is not None:
            plan = self.planner.plan(
                target, self.match,
                supports=pair_support_by_block(itemsets),
                excluded=excluded)
            self.match = plan.mapping
        return itemsets.n_transactions, itemsets, plan
