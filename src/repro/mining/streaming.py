"""Streaming FP-growth: fold transactions in, mine at any prefix.

A batch miner (:func:`repro.mining.fpgrowth.fpgrowth`) needs the
interval's transactions at hand.  This module is its incremental twin,
for a caller that cannot keep them (the live controller keeps one
interval's read columns and mines them in batch, see
:mod:`repro.controller.boundary`): :class:`StreamingFPGrowth` folds
transactions into a canonical prefix tree one at a time, and
:meth:`~StreamingFPGrowth.mine` produces -- at *any* prefix of the
stream -- exactly the itemsets and supports the batch miner would
report for the transactions folded so far.  The identity is
structural, not approximate: mining re-derives a weighted transaction
database from the prefix tree (multiset-equal to the folded stream)
and runs it through the batch miner's own build/mine machinery, so the
result is the same ``ItemsetCounts`` object.  The equality is
enforced by a hypothesis property over random stream prefixes and by
the ``controller`` determinism probe.

The prefix tree is ordered by item id (a canonical order independent of
frequencies), which keeps :meth:`~StreamingFPGrowth.add` O(|t| log |t|)
and makes the fold order-sensitive only in memory layout, never in the
mined result.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.mining.fpgrowth import _build, _mine, _Node
from repro.mining.itemsets import ItemsetCounts
from repro.mining.transactions import check_window_ms

__all__ = ["StreamingFPGrowth", "StreamingTransactions"]

Transaction = FrozenSet[int]


class StreamingFPGrowth:
    """Incremental FP-growth over a transaction stream.

    Parameters
    ----------
    min_support:
        Minimum absolute support applied at mining time (folding keeps
        every item: a rare item may become frequent later in the
        stream, so pruning at fold time would break prefix identity).
    max_size:
        Largest itemset size mined (the paper's matcher needs 2).
    """

    def __init__(self, min_support: int = 1, max_size: int = 2):
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.min_support = min_support
        self.max_size = max_size
        self._root = _Node(None, None)
        self._n_transactions = 0
        self._n_nodes = 0

    @property
    def n_transactions(self) -> int:
        """Transactions folded in since construction / last reset."""
        return self._n_transactions

    @property
    def n_nodes(self) -> int:
        """Prefix-tree size (the miner's memory footprint driver)."""
        return self._n_nodes

    def add(self, transaction: Iterable[int]) -> None:
        """Fold one transaction into the prefix tree.

        Duplicate items collapse (transactions are sets, as in
        :func:`repro.mining.transactions.transactions_from_arrays`);
        an empty transaction still counts toward ``n_transactions``,
        exactly as the batch miner's denominator does.
        """
        items = sorted(set(int(i) for i in transaction))
        self._n_transactions += 1
        node = self._root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _Node(item, node)
                node.children[item] = child
                self._n_nodes += 1
            child.count += 1
            node = child

    def add_many(self, transactions: Iterable[Iterable[int]]) -> None:
        for t in transactions:
            self.add(t)

    def reset(self) -> None:
        """Drop all folded transactions (an interval boundary)."""
        self._root = _Node(None, None)
        self._n_transactions = 0
        self._n_nodes = 0

    def _weighted_paths(self) -> List[Tuple[List[int], int]]:
        """The folded stream as a weighted transaction database.

        Each tree node where ``count - sum(children.count) > 0`` marks
        transactions that *end* there; the root-to-node path with that
        weight is one weighted transaction.  The resulting database is
        multiset-equal to the folded stream (dedup by shared prefix),
        which is what makes the mining identity exact rather than
        approximate.
        """
        weighted: List[Tuple[List[int], int]] = []
        stack: List[Tuple[_Node, List[int]]] = [(self._root, [])]
        while stack:
            node, path = stack.pop()
            terminal = node.count - sum(
                c.count for c in node.children.values())
            if node.item is not None and terminal > 0:
                weighted.append((path, terminal))
            for item in sorted(node.children, reverse=True):
                child = node.children[item]
                stack.append((child, path + [item]))
        return weighted

    def mine(self, min_support: Optional[int] = None,
             max_size: Optional[int] = None) -> ItemsetCounts:
        """Frequent itemsets of the folded prefix.

        Identical -- itemsets *and* supports -- to
        ``fpgrowth(folded_transactions, min_support, max_size)``; the
        weighted database reconstructed from the prefix tree feeds the
        batch miner's own build/mine pipeline.
        """
        min_support = self.min_support if min_support is None \
            else min_support
        max_size = self.max_size if max_size is None else max_size
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        weighted = self._weighted_paths()
        tree, frequent = _build(weighted, min_support)
        result: Dict[FrozenSet[int], int] = {}
        _mine(tree, frequent, (), min_support, max_size, result)
        return ItemsetCounts(result, self._n_transactions, min_support)


class StreamingTransactions:
    """Incremental twin of :func:`~repro.mining.transactions.\
transactions_from_arrays`.

    Folds ``(arrival_ms, block)`` pairs (arrival-ordered, reads only --
    the caller filters) into ``window_ms`` transactions and pushes each
    *completed* window into a sink, typically
    :meth:`StreamingFPGrowth.add`.  Windows are aligned to the first
    arrival seen since construction / the last reset, empty windows
    produce no transaction and duplicate blocks collapse -- the exact
    batch semantics, so a flush after the last arrival yields the same
    transaction list the batch builder returns for the same slice.
    """

    def __init__(self, window_ms: float, sink) -> None:
        check_window_ms(window_ms)
        self.window_ms = window_ms
        self._sink = sink
        self._base: Optional[float] = None
        self._window_idx = 0
        self._current: set = set()
        self._n_emitted = 0

    @property
    def n_emitted(self) -> int:
        """Completed transactions pushed to the sink so far."""
        return self._n_emitted

    def observe(self, arrival_ms: float, block: int) -> None:
        """Fold one request; emits the previous window if it closed."""
        if self._base is None:
            self._base = float(arrival_ms)
        win = int((float(arrival_ms) - self._base)
                  / self.window_ms + 1e-9)
        if win != self._window_idx and self._current:
            self._emit()
        self._window_idx = win
        self._current.add(int(block))

    def flush(self) -> None:
        """Emit the trailing (still-open) window, if any."""
        if self._current:
            self._emit()

    def reset(self) -> None:
        """Forget the alignment base and any open window
        (a mining-interval boundary: each interval's windows re-align
        to that interval's first arrival, as the offline per-interval
        batch build does)."""
        self._base = None
        self._window_idx = 0
        self._current = set()

    def _emit(self) -> None:
        self._sink(frozenset(self._current))
        self._current = set()
        self._n_emitted += 1
