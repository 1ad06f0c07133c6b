"""Building transaction databases from traces (paper §IV-A).

"We first investigate the trace of the storage system and determine the
data blocks that are requested within a short time interval T."  Each
``T``-window of the trace becomes one transaction: the *set* of
distinct blocks requested in that window.
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Sequence

import numpy as np

from repro.traces.records import Trace

__all__ = ["check_window_ms", "transactions_from_trace",
           "transactions_from_arrays"]

Transaction = FrozenSet[int]


def check_window_ms(window_ms: float, name: str = "window_ms") -> None:
    """Refuse a FIM window that is not a finite number ``> 0``.

    A NaN or infinite window puts every read of an interval into one
    transaction, which no caller means and which costs quadratic time
    in the interval's reads once pairs are counted.
    """
    try:
        ok = math.isfinite(window_ms) and window_ms > 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(
            f"{name} must be a finite number > 0, got {window_ms!r}")


def transactions_from_arrays(arrivals_ms: Sequence[float],
                             blocks: Sequence[int],
                             window_ms: float) -> List[Transaction]:
    """Group ``blocks`` into transactions by ``window_ms`` windows.

    Windows are aligned to the first arrival; empty windows produce no
    transaction; duplicate blocks inside a window collapse (sets).
    """
    check_window_ms(window_ms)
    arr = np.asarray(arrivals_ms, dtype=np.float64)
    blk = np.asarray(blocks, dtype=np.int64)
    if len(arr) != len(blk):
        raise ValueError("arrivals and blocks must align")
    if len(arr) == 0:
        return []
    order = np.argsort(arr, kind="stable")
    arr, blk = arr[order], blk[order]
    base = arr[0]
    win = ((arr - base) / window_ms + 1e-9).astype(np.int64)
    out: List[Transaction] = []
    current: set[int] = set()
    current_win = win[0]
    for w, b in zip(win, blk):
        if w != current_win:
            out.append(frozenset(current))
            current = set()
            current_win = w
        current.add(int(b))
    out.append(frozenset(current))
    return out


def transactions_from_trace(trace: Trace,
                            window_ms: float) -> List[Transaction]:
    """Transactions of a :class:`Trace` (reads only, as in the paper)."""
    reads = trace.reads_only()
    return transactions_from_arrays(reads.arrival_ms, reads.block,
                                    window_ms)
