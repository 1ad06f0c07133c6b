"""Bipartite assignment with per-bin capacity, built on max-flow.

This is the abstract problem underlying optimal retrieval of replicated
blocks (paper §III-C): each *item* (block request) may be served by any
of its *bins* (the devices holding a replica) and each bin can serve at
most its capacity of items per access round.  It is the one place the
retrieval layer builds a :class:`~repro.graph.flownet.FlowNetwork`.
"""

from __future__ import annotations

from numbers import Integral
from typing import List, Optional, Sequence, Set, Union

from repro.graph.dinic import max_flow
from repro.graph.flownet import FlowNetwork

__all__ = ["bounded_degree_assignment"]


def bounded_degree_assignment(
    candidates: Sequence[Sequence[int]],
    n_bins: int,
    capacity: Union[int, Sequence[int]],
) -> Optional[List[int]]:
    """Assign each item to one of its candidate bins within bin capacity.

    Parameters
    ----------
    candidates:
        ``candidates[i]`` is the list of bin indices item ``i`` may go to.
        Duplicate bin entries are tolerated and deduplicated.
    n_bins:
        Total number of bins (bins are ``0 .. n_bins-1``).
    capacity:
        Maximum number of items per bin: one int for every bin, or a
        per-bin sequence of length ``n_bins``.  Bins with capacity 0
        leave the candidate lists.

    Returns
    -------
    list[int] | None
        ``assignment[i]`` = chosen bin for item ``i``, or ``None`` if no
        feasible assignment exists.
    """
    if isinstance(capacity, Integral):
        caps = [int(capacity)] * n_bins
    else:
        caps = [int(c) for c in capacity]
        if len(caps) != n_bins:
            raise ValueError(f"capacity has {len(caps)} entries for "
                             f"{n_bins} bins")
    for c in caps:
        if c < 0:
            raise ValueError(f"capacity must be >= 0, got {c}")
    n_items = len(candidates)
    if n_items == 0:
        return []

    # Node layout: 0 = source, 1..n_items = items,
    # n_items+1 .. n_items+n_bins = bins, last = sink.
    source = 0
    sink = 1 + n_items + n_bins
    net = FlowNetwork(sink + 1)
    item_edges: List[List[int]] = []
    item_bins: List[List[int]] = []
    for i, cands in enumerate(candidates):
        seen: Set[int] = set()
        bins: List[int] = []
        for b in cands:
            if not 0 <= b < n_bins:
                raise IndexError(f"bin {b} out of range [0, {n_bins})")
            if b not in seen and caps[b] > 0:
                seen.add(b)
                bins.append(b)
        if not bins:
            return None
        net.add_edge(source, 1 + i, 1)
        edges = [net.add_edge(1 + i, 1 + n_items + b, 1) for b in bins]
        item_edges.append(edges)
        item_bins.append(bins)
    for b in range(n_bins):
        if caps[b] > 0:
            net.add_edge(1 + n_items + b, sink, caps[b])

    if max_flow(net, source, sink) < n_items:
        return None

    assignment: List[int] = [-1] * n_items
    for i in range(n_items):
        for edge, b in zip(item_edges[i], item_bins[i]):
            if net.flow_on(edge) > 0:
                assignment[i] = b
                break
        if assignment[i] < 0:  # pragma: no cover - flow guarantees this
            raise RuntimeError(f"item {i} unassigned despite full flow")
    return assignment
