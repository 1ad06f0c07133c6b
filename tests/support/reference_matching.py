"""Reference FIM block matcher: the oracle for
:class:`repro.mining.matching.FIMBlockMatcher`.

The straightforward greedy: pairs by descending support, and for each
newly seen data block a scan of every design block from a rotating
cursor, scoring each by ``(|device set & neighbour devices|, offset)``
with Python set intersections.  The library's bitmask matcher must
return the same mapping on every input.
"""

from typing import Dict, FrozenSet, Sequence, Set

from repro.allocation.base import AllocationScheme
from repro.mining.itemsets import ItemsetCounts
from repro.mining.matching import MatchResult


class ReferenceMatcher:
    """Set-intersection twin of ``FIMBlockMatcher``."""

    def __init__(self, allocation: AllocationScheme):
        self.n_design_blocks = allocation.n_buckets
        self._device_sets = [frozenset(allocation.devices_for(b))
                             for b in range(self.n_design_blocks)]

    def match_history(self, itemset_history: Sequence[ItemsetCounts],
                      decay: float = 0.5) -> MatchResult:
        if not itemset_history:
            return MatchResult.empty(self.n_design_blocks)
        combined: Dict[FrozenSet[int], float] = {}
        n_txns = 0
        for age, itemsets in enumerate(reversed(list(itemset_history))):
            weight = decay ** age
            if weight == 0:
                break
            n_txns += itemsets.n_transactions
            for itemset, count in itemsets.items():
                if len(itemset) == 2:
                    combined[itemset] = combined.get(itemset, 0.0) \
                        + weight * count
        weighted = ItemsetCounts(
            {s: max(1, int(round(c))) for s, c in combined.items()},
            n_transactions=n_txns, min_support=1)
        return self.match(weighted)

    def match(self, itemsets: ItemsetCounts) -> MatchResult:
        pairs = itemsets.pairs()
        neighbours: Dict[int, Set[int]] = {}
        for a, b, _support in pairs:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        mapping: Dict[int, int] = {}
        cursor = 0
        for a, b, _support in pairs:
            for blk in (a, b):
                if blk not in mapping:
                    mapping[blk] = self._choose(blk, neighbours, mapping,
                                                cursor)
                    cursor += 1
        return MatchResult(mapping, frozenset(mapping),
                           self.n_design_blocks)

    def _choose(self, blk: int, neighbours: Dict[int, Set[int]],
                mapping: Dict[int, int], cursor: int) -> int:
        taken: Set[int] = set()
        neighbour_devices: Set[int] = set()
        for other in neighbours.get(blk, ()):
            db = mapping.get(other)
            if db is not None:
                taken.add(db)
                neighbour_devices |= self._device_sets[db]
        n = self.n_design_blocks
        best, best_score = blk % n, None
        for off in range(n):
            cand = (cursor + off) % n
            if cand in taken:
                continue
            overlap = len(self._device_sets[cand] & neighbour_devices)
            score = (overlap, off)
            if best_score is None or score < best_score:
                best, best_score = cand, score
                if overlap == 0:
                    break
        return best
