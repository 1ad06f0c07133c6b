"""Memory per request: played results held as columns, and the
admission kernel's peak under overload, both measured with
tracemalloc in the style of ``test_interval_series.py``."""

import gc
import tracemalloc

import numpy as np

from repro.core.qos import QoSFlashArray
from repro.faults import FaultModel
from repro.flash.driver import OnlineTracePlayer

QOS = QoSFlashArray(n_devices=9)


def _player(**kwargs):
    return OnlineTracePlayer(QOS.allocation, QOS.interval_ms,
                             accesses=QOS.accesses, params=QOS.params,
                             **kwargs)


def _retained_per_request(player, arrivals, buckets, reads=None):
    """Bytes the returned ``(series, played)`` keeps alive per request.

    A first play warms the process-wide retrieval memo, so the
    measured play allocates nothing long-lived but its result."""
    player.play(arrivals, buckets, reads=reads)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = player.play(arrivals, buckets, reads=reads)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del result
    return (after - before) / len(arrivals)


def _trace(n, seed=0):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.uniform(0.01, 0.05, n)).tolist()
    buckets = rng.integers(0, QOS.n_buckets, n).tolist()
    reads = (rng.random(n) >= 0.1).tolist()
    return arrivals, buckets, reads


class TestPlayedResultBytes:
    """While every request was an ``IORequest`` plus a
    ``PlayedRequest``, a 20K-request healthy play retained 492 B per
    request and a 10K-request play with 10% writes under a stochastic
    fault schedule 474 B.  As a ``PlayedTable`` (75 B per row) plus
    the interval series, both retain 99 B."""

    LIMIT = 124  # >= 4x below the object representation

    def test_healthy_fast_play(self):
        arrivals, buckets, _ = _trace(20_000)
        per_request = _retained_per_request(_player(), arrivals, buckets)
        assert per_request <= self.LIMIT, f"{per_request:.0f} B"

    def test_faulted_fast_play(self):
        arrivals, buckets, reads = _trace(10_000)
        faults = FaultModel(
            crash_prob=0.35, down_rate=2e-3, down_mean_ms=2,
            slow_rate=4e-3, slow_mean_ms=5, error_rate=2e-3,
            error_mean_ms=3, error_prob=0.3).materialize(
                9, arrivals[-1], 0)
        per_request = _retained_per_request(_player(faults=faults),
                                            arrivals, buckets, reads)
        assert per_request <= self.LIMIT, f"{per_request:.0f} B"


def test_overload_peak_grows_linearly():
    """With 0.02 ms mean gaps nearly every request is delayed and the
    spill carry grows to the whole trace.  Admitted entries used to be
    views into each congested interval's carry concatenation, so the
    plan kept one O(carry) array alive per interval: the peak was 4.3,
    8.4 and 16.5 KB per request at 10K, 20K and 40K requests.  It is
    now flat (under 0.5 KB per request)."""
    peaks = {}
    for n in (10_000, 40_000):
        rng = np.random.default_rng(0)
        arrivals = np.cumsum(rng.exponential(0.02, n))
        buckets = rng.integers(0, QOS.n_buckets, n)
        gc.collect()
        tracemalloc.start()
        try:
            _, played = _player().play(arrivals, buckets)
            peaks[n] = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
        assert np.mean([p.delayed for p in played]) > 0.99
    assert peaks[40_000] <= 1.5 * peaks[10_000], peaks
