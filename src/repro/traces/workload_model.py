"""Statistical workload model for synthesising SNIA-like traces.

The paper evaluates on two SNIA IOTTA traces (Exchange, TPC-E) that are
not redistributable here; per DESIGN.md we replace them with a
statistical model reproducing the three properties the paper's
experiments actually consume:

1. **Per-interval volume/rate profile** (Figure 6): each trace interval
   has a duration and a request budget; arrivals inside an interval are
   a Poisson process overlaid with *microbursts* (clusters of requests
   within a few service times) that create the device contention behind
   the delayed-request percentages of Figures 8-10.
2. **Block popularity**: Zipf-distributed over a configurable block
   universe, with blocks statically striped over the original volumes
   (the "original stand" baseline retrieves each block from that
   volume).
3. **Pair structure and persistence**: a fraction of requests is issued
   as *correlated pairs* drawn from a hot-pair working set; each pair
   survives into the next interval with probability ``persistence``.
   Frequent-itemset mining of interval ``i-1`` then recognises
   ``~ pair_fraction * persistence`` of interval ``i``'s requests --
   the knob behind the paper's 17 % (Exchange) vs 87 % (TPC-E)
   FIM match rates (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.traces.records import Trace

__all__ = ["CorrelatedWorkloadModel", "WorkloadInterval"]


@dataclass(frozen=True)
class WorkloadInterval:
    """Shape of one trace interval."""

    duration_ms: float
    n_requests: int


class CorrelatedWorkloadModel:
    """Generator of correlated, bursty block-request traces.

    Parameters
    ----------
    intervals:
        Interval shapes (duration + request budget each).
    n_volumes:
        Devices/volumes of the original trace (Exchange: 9, TPC-E: 13).
    n_blocks:
        Size of the data-block universe.
    zipf_a:
        Zipf exponent of block popularity (> 1; higher = more skew).
    pair_fraction:
        Fraction of requests issued as correlated pairs.
    persistence:
        Probability that a hot pair survives into the next interval.
    n_hot_pairs:
        Size of the hot-pair working set.
    pair_window_ms:
        Max gap between the two requests of a pair (must stay below the
        FIM transaction window for the pair to be minable).
    burst_fraction:
        Fraction of requests delivered inside microbursts.
    burst_size_mean:
        Mean burst size (geometric).
    burst_span_ms:
        Time span over which one burst's requests land.
    seed:
        RNG seed; generation is fully deterministic given the seed.
    """

    def __init__(self, intervals: Sequence[WorkloadInterval],
                 n_volumes: int, n_blocks: int = 4096,
                 zipf_a: float = 1.3,
                 pair_fraction: float = 0.4,
                 persistence: float = 0.5,
                 n_hot_pairs: int = 64,
                 pair_window_ms: float = 0.05,
                 burst_fraction: float = 0.3,
                 burst_size_mean: float = 6.0,
                 burst_span_ms: float = 0.1,
                 seed: int = 0):
        if not intervals:
            raise ValueError("need at least one interval")
        if not 0 <= pair_fraction <= 1:
            raise ValueError("pair_fraction must be in [0, 1]")
        if not 0 <= persistence <= 1:
            raise ValueError("persistence must be in [0, 1]")
        if not 0 <= burst_fraction <= 1:
            raise ValueError("burst_fraction must be in [0, 1]")
        if zipf_a <= 1.0:
            raise ValueError("zipf_a must exceed 1")
        self.intervals = list(intervals)
        self.n_volumes = n_volumes
        self.n_blocks = n_blocks
        self.zipf_a = zipf_a
        self.pair_fraction = pair_fraction
        self.persistence = persistence
        self.n_hot_pairs = n_hot_pairs
        self.pair_window_ms = pair_window_ms
        self.burst_fraction = burst_fraction
        self.burst_size_mean = burst_size_mean
        self.burst_span_ms = burst_span_ms
        self.seed = seed

    # -- helpers -----------------------------------------------------------
    def _zipf_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Zipf-popular blocks folded into the universe."""
        raw = rng.zipf(self.zipf_a, size=size)
        return (raw - 1) % self.n_blocks

    def _fresh_pair(self, rng: np.random.Generator) -> Tuple[int, int]:
        a = int(self._zipf_block(rng, 1)[0])
        b = int(self._zipf_block(rng, 1)[0])
        while b == a:
            b = int(self._zipf_block(rng, 1)[0])
        return a, b

    def volume_of(self, block: int) -> int:
        """Static block -> original volume striping."""
        return block % self.n_volumes

    # -- generation -----------------------------------------------------------
    def generate(self) -> List[Trace]:
        """Produce one :class:`Trace` per interval (times are global)."""
        rng = np.random.default_rng(self.seed)
        hot_pairs: List[Tuple[int, int]] = [
            self._fresh_pair(rng) for _ in range(self.n_hot_pairs)]
        out: List[Trace] = []
        start = 0.0
        for spec in self.intervals:
            # evolve the hot-pair working set
            hot_pairs = [
                p if rng.random() < self.persistence
                else self._fresh_pair(rng)
                for p in hot_pairs]
            out.append(self._generate_interval(rng, spec, start, hot_pairs))
            start += spec.duration_ms
        return out

    def _generate_interval(self, rng: np.random.Generator,
                           spec: WorkloadInterval, start: float,
                           hot_pairs: List[Tuple[int, int]]) -> Trace:
        n = spec.n_requests
        arrivals: List[float] = []
        blocks: List[int] = []

        # 1. anchor times: bursts + independent arrivals
        n_burst_requests = int(round(n * self.burst_fraction))
        anchor_times: List[float] = []
        placed = 0
        while placed < n_burst_requests:
            size = min(1 + rng.geometric(1.0 / self.burst_size_mean),
                       n_burst_requests - placed)
            t0 = start + rng.random() * spec.duration_ms
            offs = np.sort(rng.random(size)) * self.burst_span_ms
            anchor_times.extend(float(t0 + o) for o in offs)
            placed += size
        n_single = n - len(anchor_times)
        anchor_times.extend(
            float(start + t)
            for t in np.sort(rng.random(n_single)) * spec.duration_ms)
        anchor_times.sort()

        # 2. assign blocks: correlated pairs vs singles
        i = 0
        while i < len(anchor_times):
            t = anchor_times[i]
            if (i + 1 < len(anchor_times)
                    and rng.random() < self.pair_fraction
                    and hot_pairs):
                a, b = hot_pairs[rng.integers(len(hot_pairs))]
                gap = rng.random() * self.pair_window_ms
                arrivals.extend((t, t + gap))
                blocks.extend((a, b))
                i += 2
            else:
                arrivals.append(t)
                blocks.append(int(self._zipf_block(rng, 1)[0]))
                i += 1

        order = np.argsort(np.asarray(arrivals), kind="stable")
        arr = np.asarray(arrivals)[order]
        blk = np.asarray(blocks, dtype=np.int64)[order]
        vols = blk % self.n_volumes
        return Trace.from_arrays(arr, blk, device=vols)
