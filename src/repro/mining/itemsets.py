"""Shared itemset-mining types and the result container."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["ItemsetCounts"]

Itemset = FrozenSet[int]


class ItemsetCounts:
    """Frequent itemsets with their support counts.

    A mapping ``frozenset -> count`` with convenience accessors used by
    the matcher, the planner and the cross-algorithm equivalence tests.
    The generic miners build it from that mapping;
    :func:`repro.mining.pairs.pair_counts` builds it from columns
    (:meth:`from_columns`), and then the ``frozenset`` mapping is only
    made when :meth:`support`, :meth:`items`, :meth:`as_dict`,
    membership or ``==`` first asks for it.  :meth:`pairs` is derived
    once either way.
    """

    def __init__(self, counts: Dict[Itemset, int],
                 n_transactions: int, min_support: int):
        self._dict: Optional[Dict[Itemset, int]] = dict(counts)
        self._singles: Tuple[List[int], List[int]] = ([], [])
        self._pairs: Optional[List[Tuple[int, int, int]]] = None
        self._len = len(self._dict)
        self.n_transactions = n_transactions
        self.min_support = min_support

    @classmethod
    def from_columns(cls, items: np.ndarray, item_support: np.ndarray,
                     pair_a: np.ndarray, pair_b: np.ndarray,
                     pair_support: np.ndarray, n_transactions: int,
                     min_support: int) -> "ItemsetCounts":
        """Frequent singletons and pairs given as columns; the pair rows
        must already be in :meth:`pairs` order, ``a < b`` in each."""
        self = cls.__new__(cls)
        self._dict = None
        self._singles = (items.tolist(), item_support.tolist())
        self._pairs = list(zip(pair_a.tolist(), pair_b.tolist(),
                               pair_support.tolist()))
        self._len = len(self._singles[0]) + len(self._pairs)
        self.n_transactions = int(n_transactions)
        self.min_support = min_support
        return self

    @property
    def _counts(self) -> Dict[Itemset, int]:
        if self._dict is None:
            counts = {frozenset((i,)): c for i, c in zip(*self._singles)}
            counts.update((frozenset((a, b)), c)
                          for a, b, c in self._pairs)
            self._dict = counts
        return self._dict

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support of ``itemset`` (0 if not frequent)."""
        return self._counts.get(frozenset(itemset), 0)

    def of_size(self, k: int) -> Dict[Itemset, int]:
        """Frequent itemsets with exactly ``k`` items."""
        return {s: c for s, c in self._counts.items() if len(s) == k}

    def pairs(self) -> List[Tuple[int, int, int]]:
        """Size-2 itemsets as sorted ``(a, b, support)`` triples,
        ordered by descending support (ties by items)."""
        if self._pairs is None:
            rows = [(min(s), max(s), c)
                    for s, c in self.of_size(2).items()]
            rows.sort(key=lambda r: (-r[2], r[0], r[1]))
            self._pairs = rows
        return list(self._pairs)

    def items(self):
        return self._counts.items()

    def as_dict(self) -> Dict[Itemset, int]:
        return dict(self._counts)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, itemset) -> bool:
        return frozenset(itemset) in self._counts

    def __eq__(self, other) -> bool:
        if not isinstance(other, ItemsetCounts):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return (f"<ItemsetCounts {len(self)} itemsets over "
                f"{self.n_transactions} transactions "
                f"(min_support={self.min_support})>")
