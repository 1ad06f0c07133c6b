"""Unit tests for the mixed read/write path."""

import numpy as np
import pytest

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.flash.driver import BatchTracePlayer, OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS

READ = MSR_SSD_PARAMS.read_ms
WRITE = MSR_SSD_PARAMS.write_ms
T = 0.133


@pytest.fixture(scope="module")
def alloc():
    return DesignTheoreticAllocation.from_parameters(9, 3)


class TestWriteSemantics:
    def test_batch_player_rejects_writes(self, alloc):
        with pytest.raises(ValueError, match="read-only"):
            BatchTracePlayer(alloc, T).play([0.0], [0], reads=[False])

    def test_reads_alignment_checked(self, alloc):
        with pytest.raises(ValueError):
            OnlineTracePlayer(alloc, T).play([0.0], [0],
                                             reads=[True, False])

    def test_write_takes_write_latency(self, alloc):
        series, played = OnlineTracePlayer(alloc, T).play(
            [0.0], [0], reads=[False])
        assert played[0].io.response_ms == pytest.approx(WRITE)
        assert not played[0].io.is_read

    def test_write_occupies_all_replicas(self, alloc):
        # a write to bucket 0 (devices 0,1,2) blocks a following read
        # whose only replicas are those devices
        arrivals = [0.0, 0.00001]
        buckets = [0, 0]
        reads = [False, True]
        series, played = OnlineTracePlayer(alloc, T).play(
            arrivals, buckets, reads=reads)
        read_req = next(p for p in played if p.io.is_read)
        assert read_req.delayed
        assert read_req.io.issued_at == pytest.approx(WRITE)

    def test_read_elsewhere_unaffected(self, alloc):
        # devices of bucket 0 are (0,1,2); bucket 10 lives on (3,4,5)
        arrivals = [0.0, 0.00001]
        buckets = [0, 10]
        reads = [False, True]
        devs = alloc.devices_for(10)
        assert set(devs).isdisjoint(alloc.devices_for(0))
        _, played = OnlineTracePlayer(alloc, T).play(
            arrivals, buckets, reads=reads)
        read_req = next(p for p in played if p.io.is_read)
        assert not read_req.delayed
        assert read_req.io.response_ms == pytest.approx(READ)

    def test_write_counts_c_against_budget(self, alloc):
        # one write (cost 3) plus three reads exceeds S = 5: the last
        # read spills to the next interval
        arrivals = [0.0, 1e-5, 2e-5, 3e-5]
        buckets = [0, 10, 20, 30]
        reads = [False, True, True, True]
        _, played = OnlineTracePlayer(alloc, T).play(
            arrivals, buckets, reads=reads)
        spilled = [p for p in played if p.io.issued_at >= T - 1e-9]
        assert len(spilled) == 1

    def test_pure_read_trace_unchanged_by_reads_arg(self, alloc):
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0, 10, 100))
        buckets = rng.integers(0, 36, 100)
        s1, _ = OnlineTracePlayer(alloc, T).play(
            list(arrivals), list(buckets))
        s2, _ = OnlineTracePlayer(alloc, T).play(
            list(arrivals), list(buckets), reads=[True] * 100)
        assert s1.overall().summary() == s2.overall().summary()

    def test_hot_overwrites_take_nominal_time(self, alloc):
        n = 20
        arrivals = [i * 1.0 for i in range(n)]
        buckets = [i % 3 for i in range(n)]
        series, _ = OnlineTracePlayer(alloc, T).play(
            arrivals, buckets, reads=[False] * n)
        assert series.overall().max == pytest.approx(WRITE)
