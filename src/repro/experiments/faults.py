"""Fault experiments -- QoS under module failures, per scheme.

Not a paper artefact: the paper argues (§III) that replicated
declustering buys fault tolerance alongside QoS, but never measures
degraded mode.  This family quantifies it.  For each allocation scheme
and each failure count ``f``, modules ``0..f-1`` crash at ``t = 0``
(:class:`repro.faults.FaultSchedule`), the same round-robin read trace
plays through the online driver with failure-aware retrieval and
failover, and the run reports response time and guarantee-violation
rate.

Expected shape (asserted by the golden snapshots and the integration
tests):

* **single** (unreplicated striping, ``c = 1``) -- every failure loses
  ``1/N`` of the data; the violation rate climbs strictly with ``f``.
* **chained** (RAID-1 chained declustering, ``c = 2``) -- one failure
  is absorbed by the surviving replicas; data loss starts at the first
  *adjacent* pair of failures.
* **design** (design-theoretic, ``c = 3``) -- stays within QoS until
  the failure set covers a whole design block (``f >= c``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.allocation import (
    DesignTheoreticAllocation,
    Raid1Chained,
    SingleCopyAllocation,
)
from repro.experiments.common import ExperimentResult
from repro.faults import FaultSchedule
from repro.flash.driver import OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from repro.obs.metrics import sequential_sum
from repro.runner import Cell, ParallelRunner

__all__ = ["run", "SCHEMES", "make_allocation", "played_metrics"]

#: scheme slug -> replication degree, in presentation order
SCHEMES = {"single": 1, "chained": 2, "design": 3}


def make_allocation(scheme: str, n_devices: int):
    """The allocation behind one scheme slug."""
    if scheme == "single":
        return SingleCopyAllocation(n_devices)
    if scheme == "chained":
        return Raid1Chained(n_devices, replication=2)
    if scheme == "design":
        return DesignTheoreticAllocation.from_parameters(n_devices, 3)
    raise ValueError(f"unknown scheme {scheme!r}")


def played_metrics(played, guarantee_ms: float,
                   ) -> Tuple[float, float, float, float]:
    """Degraded-mode cell metrics over one play-through, in bulk.

    ``played`` is a :class:`~repro.flash.played.PlayedTable`.  Returns
    ``(avg_ms, pct_delayed, failed, violation_rate)`` exactly as the
    reference per-request loops compute them (this family's row
    shape): served = not rejected and not failed; violations =
    failures + guarantee misses among served; percentages over served
    + failed.  The mean adds left to right
    (:func:`repro.obs.metrics.sequential_sum`, not ``np.sum``, whose
    pairwise reassociation could drift a rounded golden digit).
    """
    if len(played) == 0:
        return 0.0, 0.0, 0.0, 0.0
    failed = played.failed
    served = played.served
    response = played.response_ms[served]
    n_served = int(np.count_nonzero(served))
    n_failed = int(np.count_nonzero(failed))
    considered = n_served + n_failed
    violations = n_failed + int(np.count_nonzero(
        response > guarantee_ms + 1e-9))
    avg_ms = (sequential_sum(response) / n_served
              if n_served else 0.0)
    pct_delayed = (100.0 * int(np.count_nonzero(played.delayed & served))
                   / considered if considered else 0.0)
    rate = violations / considered if considered else 0.0
    return avg_ms, pct_delayed, float(n_failed), rate


def _cell_faults(scheme: str, n_failed: int, n_requests: int,
                 n_devices: int, seed: int) -> List[float]:
    """One (scheme, failure-count) cell.

    The trace is shared across cells -- round-robin buckets at a
    moderate arrival rate -- so the only variable is the fault
    schedule.  ``seed`` keeps the signature cache-friendly and leaves
    room for stochastic fault models later; the scripted crash
    schedule itself is deterministic.
    """
    del seed  # scripted schedule; kept in the cache key on purpose
    alloc = make_allocation(scheme, n_devices)
    schedule = FaultSchedule.crashes(range(n_failed)) \
        if n_failed else None
    player = OnlineTracePlayer(alloc, interval_ms=0.4,
                               accesses=1, params=MSR_SSD_PARAMS,
                               faults=schedule)
    gap = 0.25
    arrivals = [i * gap for i in range(n_requests)]
    buckets = [i % alloc.n_buckets for i in range(n_requests)]
    _, played = player.play(arrivals, buckets)
    guarantee = player.accesses * MSR_SSD_PARAMS.read_ms
    return list(played_metrics(played, guarantee))


def run(n_requests: int = 720, max_failures: int = 4,
        n_devices: int = 9, seed: int = 0,
        runner: Optional[ParallelRunner] = None) -> ExperimentResult:
    """Response time and violation rate vs failed-module count."""
    runner = runner or ParallelRunner()
    grid = [(scheme, f) for scheme in SCHEMES
            for f in range(max_failures + 1)]
    cells = [Cell("faults", f"{scheme}/f={f}", _cell_faults,
                  (scheme, f, n_requests, n_devices, seed))
             for scheme, f in grid]
    results = runner.run(cells)
    rows: List[List[object]] = []
    for (scheme, f), (avg_ms, pct_delayed, failed, rate) in zip(
            grid, results):
        rows.append([scheme, SCHEMES[scheme], f, round(avg_ms, 6),
                     round(pct_delayed, 2), int(failed),
                     round(rate, 6)])
    return ExperimentResult(
        name=f"Faults -- degraded-mode QoS vs failed modules "
             f"(N={n_devices})",
        headers=["scheme", "copies c", "failed modules",
                 "avg resp ms", "% delayed", "lost requests",
                 "violation rate"],
        rows=rows,
        notes="Failure-aware retrieval masks dead modules; the "
              "violation rate counts lost requests and guarantee "
              "misses.  Replication absorbs failures until the "
              "degree is exhausted; unreplicated striping degrades "
              "with every failure.",
    )
