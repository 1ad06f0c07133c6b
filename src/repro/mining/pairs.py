"""Frequent items and pairs of one interval, counted on columns.

The paper's matcher needs only the frequent *pairs* of the interval
just played (§IV-A), and the live boundary mines one interval's read
columns ``(arrival_ms, block)`` at a time.  :func:`pair_counts` counts
them with array operations instead of building one ``frozenset`` per
window and running the generic level-wise miner:

1. the reads are stable-sorted by arrival and cut into windows with
   :func:`~repro.mining.transactions.transactions_from_arrays`'s own
   rule, ``((arr - arr[0]) / window_ms + 1e-9)`` truncated;
2. duplicate ``(window, block)`` rows collapse (a transaction is a
   set), keyed on dense block ranks so that ids beyond 2**31 cannot
   overflow a packed key;
3. singleton supports are the per-rank row counts;
4. each row pairs with every later row of its window; the index pairs
   are laid out with ``repeat``/``arange``, one entry per co-occurring
   pair and no loop over window sizes;
5. pairs are counted once, pruned to ``min_support`` and sorted by
   ``(-support, a, b)``, the order :meth:`ItemsetCounts.pairs` serves.

A pair's support never exceeds either item's, so counting every pair
and pruning once finds exactly the pairs ``apriori(..., max_size=2)``
finds by counting only pairs of frequent items: the result equals
``apriori(transactions_from_arrays(arrivals, blocks, window_ms),
min_support, max_size=2)``, supports and transaction count included.
A hypothesis suite and the ``controller`` determinism probe hold the
two to it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mining.itemsets import ItemsetCounts
from repro.mining.transactions import check_window_ms

__all__ = ["pair_counts"]


def pair_counts(arrivals_ms: Sequence[float], blocks: Sequence[int],
                window_ms: float, min_support: int = 1) -> ItemsetCounts:
    """Frequent items and pairs of ``blocks`` grouped into
    ``window_ms`` windows (see the module docstring)."""
    check_window_ms(window_ms)
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    arr = np.asarray(arrivals_ms, dtype=np.float64)
    blk = np.asarray(blocks, dtype=np.int64)
    if len(arr) != len(blk):
        raise ValueError("arrivals and blocks must align")
    empty = np.zeros(0, np.int64)
    if len(arr) == 0:
        return ItemsetCounts.from_columns(empty, empty, empty, empty,
                                          empty, 0, min_support)
    order = np.argsort(arr, kind="stable")
    arr, blk = arr[order], blk[order]
    win = ((arr - arr[0]) / window_ms + 1e-9).astype(np.int64)
    # win never decreases, so a new window starts wherever it changes
    window = np.concatenate(([0], np.cumsum(win[1:] != win[:-1])))
    ids, rank = np.unique(blk, return_inverse=True)
    n_ids = len(ids)
    # one row per (window, block), sorted by window, then rank; a
    # sort and a neighbour compare, as np.unique without outputs
    # imports numpy.ma on its first call
    rows = np.sort(window * n_ids + rank)
    rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    row_window, row_rank = np.divmod(rows, n_ids)

    item_support = np.bincount(row_rank, minlength=n_ids)
    frequent = np.flatnonzero(item_support >= min_support)

    # row i pairs with every later row of its window, up to its end
    n_rows = len(rows)
    bounds = np.flatnonzero(np.diff(row_window, append=-1)) + 1
    later = np.repeat(bounds, np.diff(bounds, prepend=0)) \
        - np.arange(n_rows) - 1
    first = np.repeat(np.arange(n_rows), later)
    step = np.arange(len(first)) \
        - np.repeat(np.cumsum(later) - later, later) + 1
    pair_keys, pair_support = np.unique(
        row_rank[first] * n_ids + row_rank[first + step],
        return_counts=True)
    keep = pair_support >= min_support
    pair_keys, pair_support = pair_keys[keep], pair_support[keep]
    # keys are sorted by (a, b); a stable sort on -support keeps that
    # order inside each support level
    by_support = np.argsort(-pair_support, kind="stable")
    pair_a, pair_b = np.divmod(pair_keys[by_support], n_ids)
    return ItemsetCounts.from_columns(
        ids[frequent], item_support[frequent], ids[pair_a], ids[pair_b],
        pair_support[by_support], int(window[-1]) + 1, min_support)
