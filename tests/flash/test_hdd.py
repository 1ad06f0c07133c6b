"""Unit tests for the HDD module model."""

import pytest

from repro.flash.array import FlashArray, IORequest
from repro.flash.hdd import ENTERPRISE_15K, HDDModule, HDDParams
from repro.sim import Environment


class TestHDDParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HDDParams(full_seek_ms=0.1, min_seek_ms=0.3)
        with pytest.raises(ValueError):
            HDDParams(rpm=0)
        with pytest.raises(ValueError):
            HDDParams(n_blocks=0)

    def test_revolution_time(self):
        assert ENTERPRISE_15K.revolution_ms == pytest.approx(4.0)

    def test_seek_curve(self):
        p = ENTERPRISE_15K
        assert p.seek_ms(0, 0) == 0.0
        assert p.seek_ms(0, 1) == pytest.approx(p.min_seek_ms)
        assert p.seek_ms(0, p.n_blocks) == pytest.approx(
            p.full_seek_ms)
        # quarter of the surface: sqrt(0.25) = half the full seek
        assert p.seek_ms(0, p.n_blocks // 4) == pytest.approx(
            p.full_seek_ms / 2, rel=0.01)

    def test_seek_symmetric(self):
        p = ENTERPRISE_15K
        assert p.seek_ms(100, 200) == p.seek_ms(200, 100)


class TestHDDModule:
    def _serve(self, buckets, seed=0):
        env = Environment()
        array = FlashArray(
            env, 1,
            module_factory=lambda e, i: HDDModule(e, i, seed=seed))
        ios = []
        for b in buckets:
            io = IORequest(arrival=0.0, bucket=b)
            array.issue(io, 0)
            ios.append(io)
        env.run()
        return ios

    def test_service_includes_mechanical_delays(self):
        (io,) = self._serve([ENTERPRISE_15K.n_blocks // 2])
        # at least the seek floor, at most seek+rev+transfer
        assert io.response_ms > ENTERPRISE_15K.min_seek_ms
        assert io.response_ms <= (ENTERPRISE_15K.full_seek_ms
                                  + ENTERPRISE_15K.revolution_ms
                                  + ENTERPRISE_15K.transfer_ms + 1e-9)

    def test_sequential_cheaper_than_random(self):
        near = self._serve([0, 1, 2, 3], seed=1)
        far = self._serve([0, 500_000, 10, 900_000], seed=1)
        t_near = sum(io.response_ms for io in near)
        t_far = sum(io.response_ms for io in far)
        assert t_far > t_near

    def test_deterministic_per_seed(self):
        a = self._serve([5, 100, 7], seed=3)
        b = self._serve([5, 100, 7], seed=3)
        assert [io.completed_at for io in a] == \
            [io.completed_at for io in b]

    def test_variance_unlike_flash(self):
        import numpy as np

        ios = self._serve(list(np.random.default_rng(0).integers(
            0, ENTERPRISE_15K.n_blocks, 50)))
        services = [io.completed_at - io.started_at for io in ios]
        assert np.std(services) > 0.3


class TestHDDCounterfactual:
    def test_deterministic_qos_impossible_on_hdd(self):
        """The §II-A claim end to end, on the flash-vs-HDD ablation's
        path: the same allocation and batch scheduler that pin flash
        responses at 0.132507 ms cannot bound them on HDDs."""
        import numpy as np

        from repro.allocation.design_theoretic import \
            DesignTheoreticAllocation
        from repro.flash.driver import BatchTracePlayer

        alloc = DesignTheoreticAllocation.from_parameters(9, 3)
        rng = np.random.default_rng(1)
        arrivals = list(np.sort(rng.uniform(0, 200.0, 200)))
        buckets = list(rng.integers(0, 36, 200))

        flash_series, _ = BatchTracePlayer(alloc, 0.133).play(
            arrivals, buckets)
        hdd_player = BatchTracePlayer(
            alloc, 0.133,
            module_factory=lambda env, i: HDDModule(env, i, seed=1))
        assert hdd_player.engine == "des"
        hdd_series, _ = hdd_player.play(arrivals, buckets)

        assert flash_series.overall().max <= 0.132507 + 1e-9
        assert hdd_series.overall().max > 10 * 0.132507
        assert hdd_series.overall().std > 0.3
