"""Unit tests for the flash-array simulator substrate."""

import pytest

from repro.flash import (
    FlashArray,
    FlashModule,
    FlashParams,
    IORequest,
    MSR_SSD_PARAMS,
    ResponseStats,
)
from repro.flash.metrics import IntervalSeries
from repro.sim import Environment

READ = MSR_SSD_PARAMS.read_ms


class TestParams:
    def test_paper_read_latency(self):
        assert MSR_SSD_PARAMS.read_ms == pytest.approx(0.132507)

    def test_service_is_one_block(self):
        assert MSR_SSD_PARAMS.service_ms(True) == READ
        assert MSR_SSD_PARAMS.service_ms(False) == \
            MSR_SSD_PARAMS.write_ms

    def test_write_includes_program(self):
        p = FlashParams()
        assert p.write_ms == p.page_program_ms + p.transfer_ms

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashParams(page_read_ms=-1)
        for name in ("page_read_ms", "transfer_ms", "page_program_ms"):
            for bad in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match=name):
                    FlashParams(**{name: bad})


def _issue(env, array, device, arrival=0.0, bucket=0):
    io = IORequest(arrival=arrival, bucket=bucket)
    array.issue(io, device)
    return io


class TestModuleAndArray:
    def test_single_read_latency(self):
        env = Environment()
        array = FlashArray(env, 9)
        io = _issue(env, array, 0)
        env.run()
        assert io.response_ms == pytest.approx(READ)

    def test_fcfs_serialisation(self):
        env = Environment()
        array = FlashArray(env, 2)
        a = _issue(env, array, 0)
        b = _issue(env, array, 0)
        c = _issue(env, array, 1)
        env.run()
        assert a.response_ms == pytest.approx(READ)
        assert b.response_ms == pytest.approx(2 * READ)
        assert c.response_ms == pytest.approx(READ)  # parallel module

    def test_device_out_of_range(self):
        env = Environment()
        array = FlashArray(env, 2)
        with pytest.raises(IndexError):
            array.issue(IORequest(arrival=0.0, bucket=0), 5)

    def test_needs_modules(self):
        with pytest.raises(ValueError):
            FlashArray(Environment(), 0)

    def test_stats_collects_all_completions(self):
        env = Environment()
        array = FlashArray(env, 3)
        for d in range(3):
            _issue(env, array, d)
        env.run()
        assert array.stats.n_total == 3
        assert array.stats.max == pytest.approx(READ)

    def test_queue_depth_and_utilisation(self):
        env = Environment()
        array = FlashArray(env, 1)
        _issue(env, array, 0)
        _issue(env, array, 0)
        _issue(env, array, 0)
        env.run(until=READ / 2)
        # one in service, two queued
        assert array.queue_depths() == [2]
        env.run()
        mod = array.modules[0]
        assert mod.n_served == 3
        assert mod.utilisation(3 * READ) == pytest.approx(1.0)

    def test_mid_trace_issue_timing(self):
        env = Environment()
        array = FlashArray(env, 1)

        def proc():
            yield env.timeout(1.0)
            io = IORequest(arrival=1.0, bucket=0)
            done = array.issue(io, 0)
            yield done
            return io

        p = env.process(proc())
        env.run()
        assert p.value.issued_at == 1.0
        assert p.value.completed_at == pytest.approx(1.0 + READ)


class TestResponseStats:
    def test_empty(self):
        st = ResponseStats()
        assert st.avg == 0.0
        assert st.std == 0.0
        assert st.max == 0.0
        assert st.pct_delayed == 0.0
        assert st.avg_delay == 0.0

    def test_summary_values(self):
        st = ResponseStats()
        st.record(1.0)
        st.record(3.0, delay_ms=0.5)
        assert st.avg == 2.0
        assert st.max == 3.0
        assert st.std == pytest.approx(1.0)
        assert st.pct_delayed == 50.0
        assert st.avg_delay == 0.5
        assert st.summary()["n"] == 2.0

    def test_interval_series(self):
        s = IntervalSeries()
        s.record(0, 1.0)
        s.record(2, 3.0, delay_ms=0.1)
        assert s.intervals() == [0, 2]
        idx, maxes = s.series("max")
        assert idx == [0, 2]
        assert maxes == [1.0, 3.0]
        overall = s.overall()
        assert overall.n_total == 2
        assert overall.n_delayed == 1

