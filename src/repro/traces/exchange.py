"""Exchange-like workload (paper §V-B2, Figure 6a/b).

The original: a Microsoft Exchange 2007 mail server for 5000 users --
9 active volumes, ~40 M block reads over 24 hours, broken into 96
15-minute intervals.  Our statistical stand-in keeps the structural
facts the experiments consume -- 9 volumes, 96 intervals, a diurnal
rate profile with bursts, Zipf popularity, and *low* pattern
persistence (the paper measures only ~17 % of blocks recurring through
FIM between consecutive intervals) -- at laptop scale: interval
durations and request counts shrink by ``scale`` while per-request
contention (requests per service time) is preserved.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.traces.records import Trace
from repro.traces.workload_model import CorrelatedWorkloadModel, \
    WorkloadInterval

__all__ = ["exchange_like_trace", "exchange_model", "EXCHANGE_N_VOLUMES",
           "EXCHANGE_N_INTERVALS", "EXCHANGE_N_BLOCKS"]

EXCHANGE_N_VOLUMES = 9
EXCHANGE_N_INTERVALS = 96
#: the model's block space: every drawn block lies in
#: ``[0, EXCHANGE_N_BLOCKS)``
EXCHANGE_N_BLOCKS = 131072

#: Scaled stand-in for one 15-minute interval.
_INTERVAL_MS = 60.0
_BASE_REQUESTS = 320


def _diurnal_counts(n_intervals: int, base: int,
                    seed: int) -> List[int]:
    """Request budgets following a day-shaped curve with noise.

    The Exchange trace starts at 2:39 pm; load stays high through the
    afternoon, dips overnight and climbs again next morning (the
    double-hump visible in the paper's Figure 6(b)).
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    hours = 24.0 * np.arange(n_intervals) / n_intervals + 14.65
    phase = 2 * np.pi * (hours % 24.0) / 24.0
    # peak mid-afternoon, trough ~4am
    shape = 1.0 + 0.55 * np.cos(phase - 2 * np.pi * 15.5 / 24.0)
    noise = rng.normal(1.0, 0.12, size=n_intervals).clip(0.6, 1.5)
    counts = np.maximum(8, (base * shape * noise)).astype(int)
    return [int(c) for c in counts]


def exchange_model(scale: float = 1.0, seed: int = 0,
                   n_intervals: int = EXCHANGE_N_INTERVALS,
                   ) -> CorrelatedWorkloadModel:
    """The Exchange-like model; ``scale`` multiplies request volume."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    base = max(1, int(_BASE_REQUESTS * scale))
    counts = _diurnal_counts(n_intervals, base, seed)
    intervals = [WorkloadInterval(_INTERVAL_MS, c) for c in counts]
    return CorrelatedWorkloadModel(
        intervals,
        n_volumes=EXCHANGE_N_VOLUMES,
        n_blocks=EXCHANGE_N_BLOCKS,
        zipf_a=1.05,
        pair_fraction=0.18,
        persistence=0.40,
        n_hot_pairs=48,
        pair_window_ms=0.05,
        burst_fraction=0.25,
        burst_size_mean=5.0,
        burst_span_ms=0.12,
        seed=seed,
    )


def exchange_like_trace(scale: float = 1.0, seed: int = 0,
                        n_intervals: int = EXCHANGE_N_INTERVALS,
                        ) -> List[Trace]:
    """Per-interval traces of the Exchange-like workload."""
    return exchange_model(scale, seed, n_intervals).generate()
