"""Optimal retrieval via maximum flow (paper §III-C, refs [14, 15]).

Network: source -> request (capacity 1), request -> replica device
(capacity 1), device -> sink (capacity ``M``).  A full flow of value
``b`` exists iff the batch is retrievable in ``M`` accesses; the
smallest such ``M`` (searched upward from ``ceil(b/N)``) is the optimal
schedule, read off the saturated request->device edges.
"""

from __future__ import annotations

import math
from typing import Collection, Optional, Sequence

from repro.allocation.degraded import DataUnavailableError
from repro.check import sanitizers
from repro.graph import kernels
from repro.graph.kuhn import capacitated_assignment
from repro.graph.matching import bounded_degree_assignment
from repro.retrieval.schedule import RetrievalSchedule, optimal_accesses

__all__ = ["maxflow_retrieval", "is_retrievable_in",
           "maxflow_retrieval_with_carry", "mask_candidates"]


def mask_candidates(candidates: Sequence[Sequence[int]],
                    excluded: Collection[int],
                    ) -> Sequence[Sequence[int]]:
    """Candidate lists with the ``excluded`` (failed) devices removed.

    The failure-aware entry point of the retrieval layer: dead or
    degraded modules (:mod:`repro.faults`) leave every candidate set
    before scheduling, preserving replica preference order.  Raises
    :class:`repro.allocation.degraded.DataUnavailableError` when a
    request loses all of its replicas -- at that failure level the
    batch is not retrievable at any access count.
    """
    if not excluded:
        return candidates
    dead = frozenset(excluded)
    out = []
    for i, cands in enumerate(candidates):
        live = tuple(d for d in cands if d not in dead)
        if not live:
            raise DataUnavailableError(
                f"request {i}: all replica devices {tuple(cands)} "
                f"are failed")
        out.append(live)
    return out


def is_retrievable_in(candidates: Sequence[Sequence[int]], n_devices: int,
                      accesses: int,
                      excluded: Optional[Collection[int]] = None) -> bool:
    """Feasibility: can the batch complete within ``accesses`` rounds?

    One exact feasibility check (:func:`repro.graph.kernels.feasible`:
    bitset greedy and Hall test for small arrays, Kuhn's matcher
    otherwise).  A negative ``accesses`` raises :class:`ValueError`.

    ``excluded`` masks failed devices out of every candidate set
    first; a request with no live replica makes the batch infeasible
    (False) rather than raising.
    """
    if excluded:
        try:
            candidates = mask_candidates(candidates, excluded)
        except DataUnavailableError:
            return False
    return kernels.feasible(candidates, n_devices, accesses)


def maxflow_retrieval(candidates: Sequence[Sequence[int]],
                      n_devices: int,
                      excluded: Optional[Collection[int]] = None,
                      ) -> RetrievalSchedule:
    """Compute the minimum-access schedule exactly.

    Runs in ``O(b^{1.5} c)`` per feasibility probe on these unit
    networks -- inside the paper's ``O(b^3)`` bound -- with the number
    of probes bounded by how far the optimum sits above ``ceil(b/N)``
    (at most a couple of steps for design-based allocations).  Each
    probe is one run of Kuhn's capacitated matcher
    (:mod:`repro.graph.kuhn`), which raises :class:`ValueError` for a
    candidate device outside ``[0, n_devices)``.

    ``excluded`` masks failed devices out of every candidate set first
    (failure-aware retrieval); raises
    :class:`~repro.allocation.degraded.DataUnavailableError` when a
    request has no live replica.
    """
    if excluded:
        candidates = mask_candidates(candidates, excluded)
    b = len(candidates)
    if b == 0:
        return RetrievalSchedule((), n_devices)
    m = optimal_accesses(b, n_devices)
    while True:
        assignment = capacitated_assignment(candidates, n_devices, m)
        if assignment is not None:
            if sanitizers.ACTIVE:
                sanitizers.check_schedule(candidates, assignment, m)
            return RetrievalSchedule(tuple(assignment), n_devices)
        m += 1
        if m > b:  # pragma: no cover - any non-empty candidates terminate
            raise RuntimeError("retrieval search failed to terminate")


def maxflow_retrieval_with_carry(candidates: Sequence[Sequence[int]],
                                 n_devices: int,
                                 carry: Sequence[float],
                                 ) -> RetrievalSchedule:
    """Minimum-makespan schedule when devices start with backlog.

    ``carry[d]`` is the outstanding work on device ``d`` in units of
    one service time (fractional allowed).  The search finds the
    smallest round count ``M`` such that every request fits one of its
    replica devices with ``assigned_d + ceil(carry_d) <= M``.
    ``carry`` must hold ``n_devices`` finite values ``>= 0``;
    otherwise :class:`ValueError` is raised.

    Used by the interval-batch driver so that an interval's schedule
    does not pile new work onto devices still draining the previous
    interval -- the queue-aware behaviour a real I/O driver shows.
    """
    if len(carry) != n_devices:
        raise ValueError(f"carry has {len(carry)} entries for "
                         f"{n_devices} devices")
    for c in carry:
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"carry must be finite and >= 0, got {c}")
    b = len(candidates)
    if b == 0:
        return RetrievalSchedule((), n_devices)
    carry_units = [math.ceil(c - 1e-9) for c in carry]
    if all(c == 0 for c in carry_units):
        return maxflow_retrieval(candidates, n_devices)
    m = optimal_accesses(b, n_devices)
    while True:
        # Per-device residual capacity at level m; devices with zero
        # residual leave the candidate lists.
        residual = [max(0, m - c) for c in carry_units]
        assignment = bounded_degree_assignment(candidates, n_devices,
                                               residual)
        if assignment is not None:
            if sanitizers.ACTIVE:
                sanitizers.check_schedule(candidates, assignment,
                                          residual)
            return RetrievalSchedule(tuple(assignment), n_devices)
        m += 1
        if m > b + max(carry_units):  # pragma: no cover
            raise RuntimeError("carry retrieval failed to terminate")
