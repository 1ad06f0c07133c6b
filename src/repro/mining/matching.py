"""FIM-based matching of data blocks to design blocks (paper §IV-A).

The design supports a limited number of design blocks (36 for the
(9,3,1) design) while the storage system has many more data blocks.
The matcher maps data blocks onto design blocks so that *frequently
co-requested* data blocks land on **different** design blocks --
maximising the chance of parallel retrieval -- using the frequent pairs
mined from the previous interval.  Data blocks not seen by FIM fall
back to ``dataBlockNumber % numberOfDesignBlocks``.

Beyond the paper's "different design blocks" rule, the matcher prefers
design blocks whose *device sets* overlap least with the neighbours'
(two distinct design blocks can still share a device; avoiding that
too further reduces serialisation).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.allocation.base import AllocationScheme
from repro.mining.itemsets import ItemsetCounts

__all__ = ["FIMBlockMatcher", "MatchResult"]


@dataclass
class MatchResult:
    """Outcome of one matching round.

    Attributes
    ----------
    mapping:
        Explicit data-block -> design-block assignments from FIM.
    matched_blocks:
        Data blocks that appeared in the FIM output (Figure 11 counts
        how many of the *next* interval's requests hit this set).
    n_design_blocks:
        Modulo base for the fallback rule.
    """

    mapping: Dict[int, int]
    matched_blocks: FrozenSet[int]
    n_design_blocks: int

    def design_block_of(self, data_block: int) -> int:
        """Mapped design block, falling back to the modulo rule."""
        got = self.mapping.get(int(data_block))
        if got is not None:
            return got
        return int(data_block) % self.n_design_blocks

    def map_blocks(self, data_blocks: Iterable[int]) -> List[int]:
        return [self.design_block_of(b) for b in data_blocks]

    def match_rate(self, data_blocks: Sequence[int]) -> float:
        """Fraction of ``data_blocks`` covered by the FIM mapping.

        This is the paper's Figure 11 metric: the percentage of blocks
        in the current interval that were matched by mining the
        previous one.
        """
        if len(data_blocks) == 0:
            return 0.0
        hits = sum(1 for b in data_blocks
                   if int(b) in self.matched_blocks)
        return hits / len(data_blocks)

    @classmethod
    def empty(cls, n_design_blocks: int) -> "MatchResult":
        """The first-interval result: nothing mined yet, all modulo."""
        return cls({}, frozenset(), n_design_blocks)


class FIMBlockMatcher:
    """Greedy conflict-avoiding matcher driven by mined pairs.

    Each design block's device set is one bitmask, so a data block's
    neighbour devices are an OR of masks and a candidate's overlap with
    them is one AND.  For each neighbour mask seen, the matcher keeps
    the design blocks grouped by overlap with it (:meth:`_entry`).  A
    block with a device outside the mask cannot be a neighbour's, so
    when the least-overlap group holds only such blocks the greedy
    answer from every cursor position is known in advance and most
    data blocks are placed with one lookup; otherwise the groups are
    walked from the cursor, skipping the neighbours' design blocks, as
    the plain greedy scan would.

    Parameters
    ----------
    allocation:
        Supplies the design-block count and, for the device-overlap
        preference, each design block's device set (never empty).
    """

    #: neighbour masks remembered before the cache starts over (a
    #: 9-device design has at most 512)
    _CACHE_SIZE = 4096

    def __init__(self, allocation: AllocationScheme):
        self.allocation = allocation
        self.n_design_blocks = allocation.n_buckets
        self._masks = [
            sum(1 << d for d in sorted(set(allocation.devices_for(b))))
            for b in range(self.n_design_blocks)]
        if not all(self._masks):
            raise ValueError("every design block needs a device")
        #: neighbour-device mask -> :meth:`_entry`
        self._entries: Dict[int, Tuple[List[int], List[List[int]]]] = {}

    def match_history(self, itemset_history: Sequence[ItemsetCounts],
                      decay: float = 0.5) -> MatchResult:
        """Match using several intervals of mining history.

        The paper notes "longer history can be used for better matching
        of the design blocks to the data blocks" (§V-D).  Supports from
        older intervals are combined with exponential ``decay`` (most
        recent interval last in the sequence, weight 1; one older,
        weight ``decay``; and so on), then matched as usual.
        """
        if not itemset_history:
            return MatchResult.empty(self.n_design_blocks)
        if not 0 <= decay <= 1:
            raise ValueError("decay must be in [0, 1]")
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
        # round weighted supports up so every surviving pair stays >= 1
        weighted = ItemsetCounts(
            {s: max(1, int(round(c))) for s, c in combined.items()},
            n_transactions=n_txns, min_support=1)
        return self.match(weighted)

    def match(self, itemsets: ItemsetCounts) -> MatchResult:
        """Assign design blocks given mined pair supports.

        Pairs are processed by descending support; each data block gets
        the design block that (1) differs from every already-assigned
        neighbour's design block and (2) overlaps their device sets
        least, with a rotating tie-break to spread load.
        """
        pairs = itemsets.pairs()
        neighbours: Dict[int, List[int]] = defaultdict(list)
        for a, b, _support in pairs:
            neighbours[a].append(b)
            neighbours[b].append(a)

        masks, n = self._masks, self.n_design_blocks
        entries = self._entries
        mapping: Dict[int, int] = {}
        placed = mapping.get
        cursor = 0  # rotating start for tie-breaking
        for a, b, _support in pairs:
            for blk in (a, b):
                if blk in mapping:
                    continue
                near = 0
                for other in neighbours[blk]:
                    db = placed(other)
                    if db is not None:
                        near |= masks[db]
                table, levels = entries.get(near) or self._entry(near)
                choice = table[cursor % n]
                if choice < 0:
                    choice = self._least_overlap(
                        blk, neighbours[blk], mapping, levels, cursor % n)
                mapping[blk] = choice
                cursor += 1
        return MatchResult(mapping, frozenset(mapping),
                           self.n_design_blocks)

    def _entry(self, near: int) -> Tuple[List[int], List[List[int]]]:
        """Design blocks by overlap with neighbour mask ``near``, and
        the greedy answer from each cursor position where no taken
        block can change it (-1 elsewhere).

        ``levels`` lists the design blocks by ascending overlap, each
        level in ascending order.  A block with a device outside
        ``near`` cannot be a neighbour's; when every block of the
        lowest level has one, the answer is the first of them from the
        cursor on, wrapping round.
        """
        masks, n = self._masks, self.n_design_blocks
        overlap = [(m & near).bit_count() for m in masks]
        levels = [[d for d in range(n) if overlap[d] == k]
                  for k in sorted(set(overlap))]
        low = levels[0]
        table = [-1] * n
        if all(masks[d] & ~near for d in low):
            table = [low[bisect_left(low, start) % len(low)]
                     for start in range(n)]
        if len(self._entries) >= self._CACHE_SIZE:
            self._entries.clear()
        entry = self._entries[near] = (table, levels)
        return entry

    def _least_overlap(self, blk: int, neighbours: List[int],
                       mapping: Dict[int, int], levels: List[List[int]],
                       start: int) -> int:
        """The first design block, by ascending overlap and then from
        the cursor ``start`` on, that no neighbour holds; ``blk``'s
        modulo block when the neighbours hold them all."""
        taken = {mapping[o] for o in neighbours if o in mapping}
        for level in levels:
            i = bisect_left(level, start)
            for cand in chain(level[i:], level[:i]):
                if cand not in taken:
                    return cand
        return blk % self.n_design_blocks
