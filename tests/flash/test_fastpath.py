"""The event-free constant-latency fast path vs the event loop.

The acceptance bar is *float-exactness*: every completion time the
fast path produces must equal the DES value bit for bit, across
hundreds of randomized traces.  ``==`` on floats below is deliberate.
"""

import numpy as np
import pytest

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.experiments.common import play_original
from repro.flash.driver import (
    BatchTracePlayer,
    OnlineTracePlayer,
    select_engine,
)
from repro.flash.params import MSR_SSD_PARAMS
from repro.traces.records import Trace

READ = MSR_SSD_PARAMS.read_ms
T = 0.133


class TestSupportsFastPlayback:
    def test_plain_config_supported(self):
        assert select_engine("auto") == ("fast", "")
        assert select_engine("fast") == ("fast", "")

    def test_any_hook_disqualifies(self):
        assert select_engine("auto", module_factory=object()) \
            == ("des", "module_factory")

    def test_select_engine(self):
        assert select_engine("des") == ("des", "forced")
        with pytest.raises(ValueError):
            select_engine("bogus")
        with pytest.raises(ValueError):
            select_engine("fast", module_factory=object())


def random_parts(rng, n_devices, grid=False):
    """1-3 trace parts with bursty random arrivals on random devices;
    ``grid`` puts every arrival on a multiple of the read time, so
    arrivals tie with each other and land on (or an ulp off) the
    completions before them."""
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        n = int(rng.integers(5, 60))
        u = np.sort(rng.uniform(0, n * rng.choice([0.3, 1.0, 3.0])
                                * READ, size=n))
        if grid:
            u = np.round(u / READ) * READ
        dev = rng.integers(0, n_devices, size=n)
        parts.append(Trace.from_arrays(u, dev, device=dev))
    return parts


class TestPlayOriginalFastVsDes:
    def test_float_exact_on_randomized_traces(self):
        # The headline property: 200 randomized traces and 100 more on
        # the tie grid, bit-identical per-part response samples from
        # both engines.
        rng = np.random.default_rng(0)
        for trial in range(300):
            n_devices = int(rng.integers(2, 14))
            parts = random_parts(rng, n_devices, grid=trial >= 200)
            fast = play_original(parts, n_devices, engine="fast")
            des = play_original(parts, n_devices, engine="des")
            assert fast.intervals() == des.intervals()
            for i in fast.intervals():
                assert fast.stats(i).state() == des.stats(i).state()
                assert fast.stats(i).n_total == des.stats(i).n_total

    def test_empty_trace(self):
        fast = play_original([], 5, engine="fast")
        assert fast.intervals() == []


def _batch_play(arrivals, engine):
    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    BatchTracePlayer(alloc, T, engine=engine).play(
        arrivals, list(range(len(arrivals))))


def _original_play(arrivals, engine):
    ok = Trace.from_arrays([0.1, 0.2], [0, 1], device=[0, 1])
    bad = Trace.from_arrays(arrivals, list(range(len(arrivals))),
                            device=[0] * len(arrivals))
    play_original([ok, bad], 13, engine=engine)


@pytest.mark.parametrize("engine", ["fast", "des"])
@pytest.mark.parametrize("play, arrivals, message", [
    # negative arrivals batched in intervals -3 and -1: the fast
    # engine issued the first at -0.399, the DES at 0.0
    (_batch_play, [-0.5, -0.2, 0.05, 0.3], r"^arrival 0 is -0\.5;"),
    # NaN used to fail the interval cast without naming the request
    (_batch_play, [0.05, float("nan"), 0.3], r"^arrival 1 is nan;"),
    # the original stand: 0.1433 ms mean response fast, 0.2317 DES
    (_original_play, [-0.5, -0.4, 0.1], r"^part 1: arrival 0 is -0\.5;"),
    # NaN: avg nan / max -inf fast, finite numbers on the DES
    (_original_play, [0.1, float("nan"), 0.3],
     r"^part 1: arrival 1 is nan;"),
], ids=["batch-negative", "batch-nan", "original-negative",
        "original-nan"])
def test_bad_arrivals_raise_on_both_engines(play, arrivals, message,
                                            engine):
    # Both players check arrivals before either engine runs, so the
    # engines cannot disagree on a trace neither can play.
    with pytest.raises(ValueError, match=message):
        play(arrivals, engine)


def played_key(p):
    io = p.io
    return (p.index, p.interval, p.delayed, p.rejected, io.device,
            io.issued_at, io.enqueued_at, io.started_at,
            io.completed_at)


class TestOnlinePlayerFastVsDes:
    @pytest.fixture(scope="class")
    def alloc(self):
        return DesignTheoreticAllocation.from_parameters(9, 3)

    def both(self, alloc, arrivals, buckets, reads=None, **kwargs):
        outs = []
        for engine in ("fast", "des"):
            player = OnlineTracePlayer(alloc, T, engine=engine,
                                       **kwargs)
            series, played = player.play(arrivals, buckets, reads)
            outs.append((series, played))
        return outs

    def random_trace(self, rng, alloc, n, writes=False):
        arrivals = np.sort(rng.uniform(0, 8 * T, size=n)).tolist()
        buckets = [int(b) for b in
                   rng.integers(0, alloc.n_buckets, size=n)]
        reads = ([bool(r) for r in rng.random(n) > 0.25]
                 if writes else None)
        return arrivals, buckets, reads

    def test_engines_agree_randomized(self, alloc):
        rng = np.random.default_rng(7)
        for trial in range(15):
            arrivals, buckets, reads = self.random_trace(
                rng, alloc, int(rng.integers(10, 80)),
                writes=trial % 2 == 1)
            (fs, fp), (ds, dp) = self.both(alloc, arrivals, buckets,
                                           reads)
            assert [played_key(p) for p in fp] \
                == [played_key(p) for p in dp]
            for i in fs.intervals():
                assert fs.stats(i).state() == ds.stats(i).state()

    def test_engines_agree_reject_policy(self, alloc):
        rng = np.random.default_rng(11)
        arrivals, buckets, _ = self.random_trace(rng, alloc, 60)
        (_, fp), (_, dp) = self.both(alloc, arrivals, buckets,
                                     overflow="reject")
        assert [played_key(p) for p in fp] \
            == [played_key(p) for p in dp]
        assert any(p.rejected for p in fp)


class TestBatchPlayerFastVsDes:
    def test_engines_agree_randomized(self):
        alloc = DesignTheoreticAllocation.from_parameters(9, 3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            arrivals = np.sort(rng.uniform(0, 6 * T, size=n)).tolist()
            buckets = [int(b) for b in
                       rng.integers(0, alloc.n_buckets, size=n)]
            outs = []
            for engine in ("fast", "des"):
                player = BatchTracePlayer(alloc, T, engine=engine)
                series, played = player.play(arrivals, buckets)
                outs.append((series, played))
            (fs, fp), (ds, dp) = outs
            assert [played_key(p) for p in fp] \
                == [played_key(p) for p in dp]
            for i in fs.intervals():
                assert fs.stats(i).state() == ds.stats(i).state()
