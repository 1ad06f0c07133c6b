"""Memory per request: played results held as columns, the faulted
replay's peak and the admission kernel's peak under overload, measured
with tracemalloc in the style of ``test_interval_series.py``; and the
faulted replay's scalar work, counted."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.core.qos import QoSFlashArray
from repro.faults import FaultModel
from repro.flash import faulted
from repro.flash.driver import OnlineTracePlayer
from repro.flash.module import FlashModule

QOS = QoSFlashArray(n_devices=9)

#: a stochastic schedule touching every module: crashes, down, slow and
#: read-error windows (``array_faulted_rw``'s fault model)
FAULTS = FaultModel(crash_prob=0.35, down_rate=2e-3, down_mean_ms=2,
                    slow_rate=4e-3, slow_mean_ms=5, error_rate=2e-3,
                    error_mean_ms=3, error_prob=0.3)


def _player(**kwargs):
    return OnlineTracePlayer(QOS.allocation, QOS.interval_ms,
                             accesses=QOS.accesses, params=QOS.params,
                             **kwargs)


def _traced_play(player, arrivals, buckets, reads=None):
    """``(retained, peak)`` bytes per request of one play: what the
    returned ``(series, played)`` keeps alive, and the most the play
    held at once.

    A first play warms the process-wide retrieval memo, so the
    measured play allocates nothing long-lived but its result."""
    player.play(arrivals, buckets, reads=reads)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = player.play(arrivals, buckets, reads=reads)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del result
    return (after - before) / len(arrivals), (peak - before) / len(arrivals)


@pytest.fixture(scope="module")
def faulted_10k():
    """One traced 10K-request play under ``FAULTS``."""
    arrivals, buckets, reads = _trace(10_000)
    faults = FAULTS.materialize(9, arrivals[-1], 0)
    return _traced_play(_player(faults=faults), arrivals, buckets, reads)


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
        per_request = _traced_play(_player(), arrivals, buckets)[0]
        assert per_request <= self.LIMIT, f"{per_request:.0f} B"

    def test_faulted_fast_play(self, faulted_10k):
        per_request = faulted_10k[0]
        assert per_request <= self.LIMIT, f"{per_request:.0f} B"

    def test_healthy_peak_is_flat(self):
        """While ``PlayedLog`` kept its 13 per-row lists until the end
        of the play, a healthy play peaked at 415 and 420 B per request
        at 10K and 40K requests.  Committed every ``_COMMIT_ROWS`` rows
        into an array the plan walker sizes up front, it peaked at 369
        and 361 B, most of the rest being the plan as per-row lists.
        With the plan walked a slice at a time, its singleton reads
        written by column, the request columns held as arrays and the
        interval series collected column by column, it peaks at 191
        and 148 B (the slice's lists are a fixed cost)."""
        peaks = {}
        for n in (10_000, 40_000):
            arrivals, buckets, _ = _trace(n)
            peaks[n] = _traced_play(_player(), arrivals, buckets)[1]
        assert peaks[40_000] <= 1.05 * peaks[10_000], peaks
        assert max(peaks.values()) <= 250, peaks


class TestFaultedReplayCost:
    """The faulted replay builds no object per submission: its peak
    stays near a healthy play's, and it takes the scalar service loop
    only where the DES meets a fault."""

    def test_peak_per_request(self, faulted_10k):
        """While each submission was a ``_Submission`` on a heap, a
        faulted play peaked at 833 B (10K requests) and 840 B (40K)
        per request; a healthy play then peaked at 377 and 381 B."""
        arrivals, buckets, reads = _trace(40_000)
        faults = FAULTS.materialize(9, arrivals[-1], 0)
        peaks = {10_000: faulted_10k[1],
                 40_000: _traced_play(_player(faults=faults), arrivals,
                                      buckets, reads)[1]}
        for n, peak in peaks.items():
            assert peak <= 550, f"{n}: {peak:.0f} B"

    def test_scalar_serves_bounded_by_loud_dequeues(self, monkeypatch):
        """Scalar ``_serve`` calls <= the DES's dequeues that meet a
        fault (dead, down, slow or read-error at the dequeue instant)
        plus its failover re-submissions."""
        arrivals, buckets, reads = _trace(10_000)
        schedule = FAULTS.materialize(9, arrivals[-1], 0)
        counts = {"loud": 0, "serve": 0}
        serve_faulty = FlashModule._serve_faulty

        def counting_faulty(module, request):
            m, t = module.module_id, module.env.now
            counts["loud"] += (schedule.is_dead(m, t)
                               or schedule.available_from(m, t) != t
                               or schedule.slowdown(m, t) != 1.0
                               or schedule.error_prob(m, t) != 0.0)
            return serve_faulty(module, request)

        serve = faulted.FaultedReplay._serve

        def counting_serve(replay, *args):
            counts["serve"] += 1
            return serve(replay, *args)

        monkeypatch.setattr(FlashModule, "_serve_faulty", counting_faulty)
        monkeypatch.setattr(faulted.FaultedReplay, "_serve", counting_serve)
        with obs.observed() as session:
            _player(faults=schedule, engine="des").play(
                arrivals, buckets, reads=reads)
        failovers = session.registry.to_dict()["counters"][
            "faults.failover"]
        _player(faults=schedule).play(arrivals, buckets, reads=reads)
        assert counts["loud"] and failovers
        assert counts["serve"] <= counts["loud"] + failovers, counts


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
