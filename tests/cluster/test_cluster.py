"""ShardedCluster unit tests: roll-up identity, mode identity,
config validation."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ShardedCluster
from repro.cluster.cluster import _array_result
from repro.controller import ControllerConfig, ReplicationController
from repro.controller.boundary import BoundaryStep
from repro.experiments.common import play_workload
from repro.faults import FaultEvent, FaultSchedule
from repro.flash.metrics import IntervalSeries
from repro.runner import ParallelRunner
from repro.traces.records import Trace
from tests.support.reference_series import RefIntervalSeries


def _parts(n_parts=3, n=60, n_blocks=24, seed=0):
    rng = np.random.default_rng(seed)
    parts = []
    t0 = 0.0
    for i in range(n_parts):
        dts = rng.uniform(0.05, 0.3, size=n)
        arrivals = t0 + np.cumsum(dts)
        blocks = rng.integers(0, n_blocks, size=n)
        parts.append(Trace.from_arrays(arrivals,
                                       blocks.astype(np.int64)))
        t0 = float(arrivals[-1]) + 5.0
    return parts


def _pair_rows(pattern, t0, n_pairs=30, is_read=True):
    """Arrivals, blocks and read flags of ``n_pairs`` windows hitting
    both ``pattern`` blocks, from ``t0`` on."""
    arrivals, blocks = [], []
    t = t0
    for _ in range(n_pairs):
        t += 0.05
        arrivals += [t, t + 0.001]
        blocks += list(pattern)
    return arrivals, blocks, [is_read] * len(blocks)


def _trace(*rows):
    arrivals, blocks, reads = [], [], []
    for a, b, r in rows:
        arrivals += a
        blocks += b
        reads += r
    order = np.argsort(arrivals, kind="stable")
    return Trace.from_arrays(np.asarray(arrivals)[order],
                             np.asarray(blocks, dtype=np.int64)[order],
                             is_read=np.asarray(reads)[order])


def _fingerprint(report):
    return _array_result(0, report.series, report.requests,
                         report.guarantee_ms, False).fingerprint


class TestRollUp:
    def test_roll_up_is_left_fold_in_array_order(self):
        """Cluster-wide roll-up == the reference per-array series
        merged in array order, on queueing (non-constant) responses;
        its histogram equals one over the concatenated samples."""
        # 1 ms intervals admit up to 7 queued reads per module, and the
        # dense arrivals queue them, so responses vary
        config = ClusterConfig(n_arrays=3, n_devices=9, interval_ms=1.0,
                               cross_replication=2, hot_support=2)
        parts = [Trace.from_arrays(p.arrival_ms / 5.0, p.block)
                 for p in _parts(n=120)]
        report = ShardedCluster(config).play(parts)
        rolled = RefIntervalSeries()
        flat = IntervalSeries()
        responses = set()
        for result in report.arrays:
            shard = RefIntervalSeries()
            for pr in result.report.requests:
                if pr.rejected or pr.failed:
                    continue
                responses.add(pr.io.response_ms)
                delay = pr.io.delay_ms if pr.delayed else 0.0
                shard.record(pr.interval, pr.io.response_ms, delay)
                flat.record(pr.interval, pr.io.response_ms, delay)
            rolled.merge(shard)
        assert len(responses) > 5
        assert repr(report.series.state()) == repr(rolled.state())
        assert repr(report.overall.state()) == \
            repr(rolled.overall().state())
        assert report.overall.histogram().state() == \
            flat.overall().histogram().state()
        # the moments are not those of the concatenated recording: an
        # array's first sample in an interval shifts its moments
        assert report.overall.state() != flat.overall().state()

    def test_summary_merges_each_array_once(self, monkeypatch):
        config = ClusterConfig(n_arrays=3, n_devices=9,
                               cross_replication=2, hot_support=2)
        report = ShardedCluster(config).play(_parts())
        merged = []
        merge = IntervalSeries.merge

        def counting_merge(self, other):
            merged.append(other)
            merge(self, other)

        monkeypatch.setattr(IntervalSeries, "merge", counting_merge)
        first = report.summary()
        assert report.summary() == first
        assert report.guarantee_met == bool(first["guarantee_met"])
        assert len(merged) == len(report.arrays)

    def test_writes_to_series_leave_the_report_unchanged(self):
        config = ClusterConfig(n_arrays=3, n_devices=9,
                               cross_replication=2, hot_support=2)
        report = ShardedCluster(config).play(_parts())
        before = (report.series.state(), report.overall.state(),
                  report.summary())
        written = report.series
        written.record(0, 1e3)
        written.merge(report.series)
        assert written.overall().n_total == \
            2 * report.overall.n_total + 1
        assert (report.series.state(), report.overall.state(),
                report.summary()) == before

    def test_counts_sum_across_arrays(self):
        config = ClusterConfig(n_arrays=3, n_devices=9,
                               cross_replication=1)
        report = ShardedCluster(config).play(_parts())
        assert report.n_requests == \
            sum(r.n_requests for r in report.arrays)
        assert report.n_violations == \
            sum(r.n_violations for r in report.arrays)
        total = sum(len(p) for p in _parts())
        assert report.n_requests == total


class TestModeIdentity:
    def test_serial_equals_runner_cells(self):
        config = ClusterConfig(n_arrays=3, n_devices=9,
                               cross_replication=2, hot_support=2)
        parts = _parts()
        serial = ShardedCluster(config).play(parts,
                                             router_sync=False)
        runner = ParallelRunner(jobs=2, cache=None,
                                auto_degrade=False)
        celled = ShardedCluster(config).play(parts, runner=runner)
        assert serial.fingerprint() == celled.fingerprint()
        assert [r.series.state() for r in serial.arrays] == \
            [r.series.state() for r in celled.arrays]

    def test_runner_mode_forces_router_sync_off(self):
        config = ClusterConfig(n_arrays=2, n_devices=9,
                               cross_replication=1)
        parts = _parts(n_parts=2)
        runner = ParallelRunner(jobs=1)
        celled = ShardedCluster(config).play(parts, runner=runner,
                                             router_sync=True)
        serial = ShardedCluster(config).play(parts,
                                             router_sync=False)
        assert celled.fingerprint() == serial.fingerprint()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_arrays=0)
        with pytest.raises(ValueError):
            ClusterConfig(cross_replication=0)
        with pytest.raises(ValueError):
            ClusterConfig(hot_support=0)

    def test_effective_cross_replication_clamps(self):
        assert ClusterConfig(n_arrays=1, cross_replication=2) \
            .effective_cross_replication == 1

    def test_summary_shape(self):
        config = ClusterConfig(n_arrays=2, n_devices=9,
                               cross_replication=1)
        report = ShardedCluster(config).play(_parts(n_parts=2))
        summary = report.summary()
        assert summary["n_arrays"] == 2.0
        assert summary["n_unrouted"] == 0.0
        assert "n_failed" not in summary  # healthy run keeps shape
        assert report.guarantee_met == \
            bool(summary["guarantee_met"])


class TestPartValidation:
    """Parts are checked once, at ingestion, before anything routes."""

    @pytest.mark.parametrize("bad, message", [
        (float("nan"), r"part 1: arrival 2 is nan"),
        (-1.0, r"part 1: arrival 2 is -1\.0"),
    ])
    def test_bad_arrival_raises(self, bad, message):
        parts = _parts(n_parts=2, n=5)
        arrivals = parts[1].arrival_ms.copy()
        arrivals[2] = bad
        parts[1] = Trace.from_arrays(arrivals, parts[1].block)
        with pytest.raises(ValueError, match=message):
            ShardedCluster(ClusterConfig(n_arrays=2)).play(parts)

    def test_unsorted_part_raises(self):
        parts = _parts(n_parts=2, n=5)
        arrivals = parts[1].arrival_ms.copy()
        arrivals[[2, 3]] = arrivals[[3, 2]]
        parts[1] = Trace.from_arrays(arrivals, parts[1].block)
        with pytest.raises(ValueError,
                           match=r"part 1: arrival 3 .* before arrival 2"):
            ShardedCluster(ClusterConfig(n_arrays=2)).play(parts)

    def test_nothing_routes_before_the_check(self, monkeypatch):
        parts = _parts(n_parts=2, n=5)
        arrivals = parts[1].arrival_ms.copy()
        arrivals[0] = float("nan")
        parts[1] = Trace.from_arrays(arrivals, parts[1].block)
        cluster = ShardedCluster(ClusterConfig(n_arrays=2))

        def no_routing(*args):
            raise AssertionError("routed before validation")

        monkeypatch.setattr(cluster, "_route_part", no_routing)
        with pytest.raises(ValueError, match="part 1"):
            cluster.play(parts)

    @pytest.mark.parametrize("bad", [-5, 24, 10 ** 9])
    def test_range_sharding_refuses_out_of_range_block(self, bad,
                                                       monkeypatch):
        parts = _parts(n_parts=2, n=5, n_blocks=24)
        blocks = parts[1].block.copy()
        blocks[3] = bad
        parts[1] = Trace.from_arrays(parts[1].arrival_ms, blocks)
        cluster = ShardedCluster(ClusterConfig(
            n_arrays=2, sharding="range", n_blocks=24))

        def no_routing(*args):
            raise AssertionError("routed before validation")

        monkeypatch.setattr(cluster, "_route_part", no_routing)
        with pytest.raises(ValueError,
                           match=rf"part 1: block 3 \({bad}\) .*"
                                 r"\[0, 24\)"):
            cluster.play(parts)
        # hash sharding has no block space to leave
        report = ShardedCluster(ClusterConfig(
            n_arrays=2, n_blocks=24)).play(parts)
        assert report.n_requests == 10

    def test_range_stand_covers_the_exchange_block_space(self):
        from repro.experiments.cluster import make_config
        from repro.traces.exchange import (EXCHANGE_N_BLOCKS,
                                           exchange_like_trace)

        parts = exchange_like_trace(scale=0.2, seed=0, n_intervals=4)
        blocks = np.concatenate([p.block for p in parts])
        assert 0 <= blocks.min() and blocks.max() < EXCHANGE_N_BLOCKS
        config = make_config("range", 9, 0)
        assert config.n_blocks == EXCHANGE_N_BLOCKS
        report = ShardedCluster(config).play(parts)
        assert report.n_requests == len(blocks)
        assert min(r.n_requests for r in report.arrays) > 0


class TestRouterSync:
    """The boundary sync reads each array's rows played so far, which a
    DES array (it plays at the drain) and a module-faulted array (its
    rows are placeholders until the drain) do not have."""

    @staticmethod
    def _busy_parts():
        # back-to-back parts dense enough to leave queues at every
        # boundary, so the sync moves routing
        rng = np.random.default_rng(0)
        parts, t0 = [], 0.0
        for _ in range(4):
            arrivals = t0 + np.cumsum(rng.uniform(0.0005, 0.004, 800))
            parts.append(Trace.from_arrays(
                arrivals, rng.integers(0, 24, 800).astype(np.int64)))
            t0 = float(arrivals[-1])
        return parts

    def test_explicit_sync_raises_on_des_cluster(self):
        config = ClusterConfig(n_arrays=2, n_devices=9, engine="des")
        with pytest.raises(ValueError, match="array 0 plays on the DES"):
            ShardedCluster(config).play(_parts(n_parts=2),
                                        router_sync=True)

    def test_explicit_sync_raises_on_module_faulted_array(self):
        config = ClusterConfig(n_arrays=2, n_devices=9)
        faults = FaultSchedule.crashes([9], n_modules=18)
        with pytest.raises(ValueError, match="array 1 replays module"):
            ShardedCluster(config, faults=faults).play(
                _parts(n_parts=2), router_sync=True)

    def test_module_faulted_default_is_open_loop(self):
        """A slow window that never fires still makes the default play
        route open-loop, as ``router_sync=False`` does."""
        config = ClusterConfig(n_arrays=3, n_devices=9, interval_ms=0.8,
                               cross_replication=2, hot_support=2)
        parts = self._busy_parts()
        faults = FaultSchedule([FaultEvent("slow", 0, 1e6, factor=2.0)],
                               n_modules=27)
        default = ShardedCluster(config, faults=faults).play(parts)
        open_loop = ShardedCluster(config, faults=faults).play(
            parts, router_sync=False)
        assert default.routed == open_loop.routed
        assert default.fingerprint() == open_loop.fingerprint()
        # the sync does move routing on this workload when it can run
        synced = ShardedCluster(config).play(parts)
        assert synced.routed != open_loop.routed


class TestModuleSeries:
    def test_faulted_series_counts_every_part(self):
        """Faulted rows are placeholders until the session drains; the
        series is measured after the drain, so parts before the last
        boundary count too."""
        config = ClusterConfig(n_arrays=2, n_devices=9, interval_ms=1.0)
        parts = _parts()
        faults = FaultSchedule.crashes([0, 9], n_modules=18)
        report = ShardedCluster(config, faults=faults).play(parts)
        first_boundary = parts[1].arrival_ms[0] / config.interval_ms
        for result in report.arrays:
            assert min(k for _, k in result.module_series.busy_ms) \
                < first_boundary


class TestEmptyIntervalResetsToModulo:
    """An array whose interval had no reads mines nothing, so it falls
    back to the modulo placement, as ``play_workload`` does."""

    def test_one_shard_with_an_empty_middle_part(self):
        parts = [_trace(_pair_rows((3, 7), 0.0),
                        ([3.1 + 0.05 * b for b in range(40)],
                         [100 + b for b in range(40)], [True] * 40)),
                 _trace(),
                 _trace(_pair_rows((3, 7), 20.0)),
                 _trace(_pair_rows((3, 7), 30.0))]
        single = play_workload(parts, n_devices=9)
        live = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        one = ShardedCluster(ClusterConfig(
            n_arrays=1, n_devices=9, cross_replication=1)).play(parts)
        assert one.series.state() == single.report.series.state()
        assert live.report.series.state() == \
            single.report.series.state()
        assert one.arrays[0].fingerprint == \
            _fingerprint(single.report) == _fingerprint(live.report)

    def test_idle_and_write_only_arrays_reset(self, monkeypatch):
        # range sharding: blocks < 100 home on array 0, the rest on 1
        config = ClusterConfig(n_arrays=2, n_devices=9,
                               cross_replication=1, sharding="range",
                               n_blocks=200)
        parts = [_trace(_pair_rows((3, 7), 0.0),
                        _pair_rows((103, 107), 0.02)),
                 # array 0 gets nothing, array 1 only writes
                 _trace(_pair_rows((103, 107), 10.0, is_read=False)),
                 _trace(_pair_rows((3, 7), 20.0),
                        _pair_rows((103, 107), 20.02))]
        mappings = []
        boundary = BoundaryStep.boundary

        def spy(step, *args, **kwargs):
            out = boundary(step, *args, **kwargs)
            mappings.append(dict(step.match.mapping))
            return out

        monkeypatch.setattr(BoundaryStep, "boundary", spy)
        report = ShardedCluster(config).play(parts)
        # boundary 1 matched each array's pair; boundary 2 found no
        # reads on either array
        assert mappings[0].keys() == {3, 7}
        assert mappings[1].keys() == {103, 107}
        assert mappings[2:] == [{}, {}]
        monkeypatch.setattr(BoundaryStep, "boundary", boundary)
        for a, result in enumerate(report.arrays):
            own = [part[np.flatnonzero((part.block >= 100) == bool(a))]
                   for part in parts]
            single = play_workload(own, n_devices=9)
            assert result.series.state() == \
                single.report.series.state()
            assert result.fingerprint == _fingerprint(single.report)
