"""``IntervalSeries``: the fold contract, read-only reads, pickling and
the O(samples) memory bound of the columnar storage."""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.flash.metrics import IntervalSeries
from repro.obs.metrics import Histogram
from tests.support.reference_series import RefIntervalSeries


def _recorded(samples, interval=0):
    series = IntervalSeries()
    for x in samples:
        series.record(interval, x)
    return series


class TestFoldContract:
    """The state is the left fold of the writes, not a function of the
    sample multiset: the shift is the first sample and re-shifting a
    merged-in state rounds."""

    def test_record_order_changes_state(self):
        forward = _recorded([0.1, 0.2, 0.7])
        backward = _recorded([0.7, 0.2, 0.1])
        assert forward.state() != backward.state()
        # the multiset-only parts agree
        assert forward.stats(0).histogram().state() == \
            backward.stats(0).histogram().state()

    def test_merge_differs_from_concatenated_recording(self):
        rolled = IntervalSeries()
        rolled.merge(_recorded([0.1]))
        rolled.merge(_recorded([0.2, 0.7]))
        flat = _recorded([0.1, 0.2, 0.7])
        assert rolled.state() != flat.state()
        # the second moment picked up the re-shift rounding
        assert rolled.state()[0][1][4] == 0.36999999999999994
        assert flat.state()[0][1][4] == 0.37

    def test_merge_is_the_reference_left_fold(self):
        rng = np.random.default_rng(3)
        shards, refs = [], []
        for _ in range(3):
            intervals = rng.integers(0, 5, size=40)
            responses = rng.lognormal(-2.0, 0.6, size=40)
            delays = np.where(rng.random(40) < 0.3,
                              rng.exponential(0.1, size=40), 0.0)
            shard, ref = IntervalSeries(), RefIntervalSeries()
            shard.record_array(intervals, responses, delays)
            ref.record_array(intervals, responses, delays)
            shards.append(shard)
            refs.append(ref)
        rolled, ref_rolled = IntervalSeries(), RefIntervalSeries()
        for shard, ref in zip(shards, refs):
            rolled.merge(shard)
            ref_rolled.merge(ref)
        assert repr(rolled.state()) == repr(ref_rolled.state())
        assert repr(rolled.overall().state()) == \
            repr(ref_rolled.overall().state())


class TestReads:
    def test_reading_a_missing_interval_does_not_write(self):
        series = IntervalSeries()
        series.record(0, 1.0)
        series.record(4, 2.0, delay_ms=0.5)
        before = series.state()
        empty = series.stats(2)
        assert empty.n_total == 0 and empty.avg == 0.0
        assert series.state() == before
        assert series.intervals() == [0, 4]
        assert series.series("avg") == ([0, 4], [1.0, 2.0])

    def test_stats_are_fresh_copies(self):
        series = _recorded([1.0, 2.0])
        series.stats(0).record(100.0)
        assert series.stats(0).n_total == 2
        overall = series.overall()
        overall.record(100.0)
        assert series.overall().n_total == 2

    def test_reads_follow_later_writes(self):
        series = _recorded([1.0])
        assert series.stats(0).max == 1.0
        series.record(0, 5.0)
        series.record_array([1, 1], [2.0, 3.0])
        assert series.stats(0).max == 5.0
        assert series.intervals() == [0, 1]
        assert series.overall().n_total == 4

    def test_series_of_other_attributes(self):
        rng = np.random.default_rng(0)
        series = IntervalSeries()
        series.record_array(rng.integers(0, 6, size=200),
                            rng.lognormal(size=200))
        idx, p99 = series.series("p99")
        assert p99 == [series.stats(i).p99 for i in idx]

    def test_record_array_checks_lengths(self):
        series = IntervalSeries()
        with pytest.raises(ValueError):
            series.record_array([0, 1, 2], [1.0, 2.0])
        with pytest.raises(ValueError):
            series.record_array([0, 1], [1.0, 2.0], delays=[0.5])
        assert series.state() == ()

    def test_empty_series(self):
        series = IntervalSeries()
        assert series.intervals() == []
        assert series.state() == ()
        assert series.overall().state() == \
            (0, 0, None, 0.0, 0.0, 0.0, None)
        assert series.series("avg") == ([], [])


class TestPickle:
    def test_round_trip_keeps_state_and_accepts_writes(self):
        series = _recorded([0.3, 0.1, 0.2])
        other = _recorded([0.5], interval=2)
        series.merge(other)
        copy = pickle.loads(pickle.dumps(series))
        assert copy.state() == series.state()
        copy.record(2, 0.9)
        series.record(2, 0.9)
        assert copy.state() == series.state()


class TestSharedLayout:
    def test_histograms_share_one_read_only_edges_array(self):
        a, b = Histogram(), Histogram()
        assert a._edges is b._edges
        assert not a._edges.flags.writeable
        with pytest.raises(ValueError):
            a._edges[0] = 0.0


def test_memory_is_bounded_per_sample():
    """56K samples over ~17K intervals (the ``stream_chunked`` bench
    shape): recording and reading ``overall()`` and ``series("avg")``
    peak under 256 B per sample (a histogram per interval was ~8 KB)."""
    n = 56_000
    rng = np.random.default_rng(0)
    intervals = np.sort(rng.integers(0, 17_000, size=n))
    responses = rng.lognormal(-2.0, 0.5, size=n)
    delays = np.where(rng.random(n) < 0.2, rng.exponential(0.1, n), 0.0)
    tracemalloc.start()
    try:
        series = IntervalSeries()
        series.record_array(intervals, responses, delays)
        series.overall()
        series.series("avg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 256, f"{peak / n:.0f} B per sample"
