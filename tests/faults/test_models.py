"""Unit tests for the fault models (events, schedules, processes)."""

import math

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultModel,
    FaultSchedule,
    RetryPolicy,
)


class TestFaultEvent:
    def test_crash_lasts_forever(self):
        e = FaultEvent("crash", 2, 5.0)
        assert not e.active_at(4.999)
        assert e.active_at(5.0)
        assert e.active_at(1e12)

    def test_window_end_exclusive(self):
        e = FaultEvent("down", 0, 1.0, 2.0)
        assert e.active_at(1.0)
        assert e.active_at(1.999)
        assert not e.active_at(2.0)

    @pytest.mark.parametrize("bad", [
        dict(kind="meltdown", module=0, start=0.0),
        dict(kind="down", module=-1, start=0.0, end=1.0),
        dict(kind="down", module=0, start=-1.0, end=1.0),
        dict(kind="down", module=0, start=2.0, end=1.0),
        dict(kind="slow", module=0, start=0.0, end=1.0, factor=0.0),
        dict(kind="read_error", module=0, start=0.0, end=1.0,
             prob=1.5),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FaultEvent(**bad)

    def test_list_round_trip(self):
        for e in (FaultEvent("crash", 3, 1.5),
                  FaultEvent("slow", 0, 0.0, 9.0, factor=4.0),
                  FaultEvent("read_error", 1, 2.0, 3.0, prob=0.25)):
            assert FaultEvent.from_list(e.to_list()) == e

    def test_infinite_end_serialises_as_string(self):
        row = FaultEvent("crash", 0, 0.0).to_list()
        assert row[3] == "inf"


NON_FINITE = {
    "down_nan_start": (lambda: FaultEvent("down", 0, math.nan, 1.0),
                       "start"),
    "crash_inf_start": (lambda: FaultEvent("crash", 0, math.inf), "start"),
    "down_nan_end": (lambda: FaultEvent("down", 0, 0.0, math.nan), "end"),
    "crash_minus_inf_end": (
        lambda: FaultEvent("crash", 0, 1.0, -math.inf), "end"),
    "slow_nan_factor": (
        lambda: FaultEvent("slow", 0, 0.0, 1.0, factor=math.nan), "factor"),
    "slow_inf_factor": (
        lambda: FaultEvent("slow", 0, 0.0, 1.0, factor=math.inf), "factor"),
    "nan_backoff": (lambda: RetryPolicy(backoff_ms=math.nan), "backoff_ms"),
    "inf_backoff": (lambda: RetryPolicy(backoff_ms=math.inf), "backoff_ms"),
    "nan_growth": (lambda: RetryPolicy(growth=math.nan), "growth"),
    "nan_backoff_and_growth": (
        lambda: RetryPolicy(backoff_ms=math.nan, growth=math.nan),
        "backoff_ms"),
    "from_dict_nan_start": (lambda: FaultSchedule.from_dict(
        {"events": [["down", 0, "nan", 1.0, 1.0, 0.0]]}), "start"),
    "from_dict_inf_growth": (lambda: FaultSchedule.from_dict(
        {"events": [], "retry": {"growth": math.inf}}), "growth"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_inputs_rejected(case):
    """NaN passes every ordered comparison, so each of these used to be
    accepted; a NaN-start down window then crashed both engines
    mid-play with a bare ``KeyError``."""
    make, field = NON_FINITE[case]
    with pytest.raises(ValueError, match=field):
        make()


class TestRetryPolicy:
    def test_exponential_backoff(self):
        r = RetryPolicy(max_retries=3, backoff_ms=0.1, growth=2.0)
        assert r.delay(0) == pytest.approx(0.1)
        assert r.delay(1) == pytest.approx(0.2)
        assert r.delay(2) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_ms=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(growth=0.5)


class TestFaultSchedule:
    def _mixed(self):
        return FaultSchedule([
            FaultEvent("crash", 1, 10.0),
            FaultEvent("down", 2, 0.0, 5.0),
            FaultEvent("slow", 3, 2.0, 4.0, factor=3.0),
            FaultEvent("read_error", 4, 0.0, 8.0, prob=0.5),
        ], n_modules=9)

    def test_dead_only_after_crash(self):
        s = self._mixed()
        assert not s.is_dead(1, 9.999)
        assert s.is_dead(1, 10.0)
        assert not s.is_dead(2, 10.0)

    def test_down_covers_windows_and_crashes(self):
        s = self._mixed()
        assert s.is_down(2, 4.9)
        assert not s.is_down(2, 5.0)
        assert s.is_down(1, 11.0)

    def test_available_from(self):
        s = self._mixed()
        assert s.available_from(2, 3.0) == 5.0
        assert s.available_from(2, 7.0) == 7.0
        assert s.available_from(1, 10.0) == float("inf")
        assert s.available_from(0, 1.0) == 1.0

    def test_available_from_chained_windows(self):
        s = FaultSchedule([FaultEvent("down", 0, 0.0, 2.0),
                           FaultEvent("down", 0, 1.5, 4.0)])
        assert s.available_from(0, 0.0) == 4.0

    def test_slowdown_multiplies_overlaps(self):
        s = FaultSchedule([
            FaultEvent("slow", 0, 0.0, 10.0, factor=2.0),
            FaultEvent("slow", 0, 5.0, 10.0, factor=3.0),
        ])
        assert s.slowdown(0, 1.0) == 2.0
        assert s.slowdown(0, 6.0) == 6.0
        assert s.slowdown(0, 10.0) == 1.0

    def test_error_prob_max_rule(self):
        s = FaultSchedule([
            FaultEvent("read_error", 0, 0.0, 10.0, prob=0.2),
            FaultEvent("read_error", 0, 0.0, 10.0, prob=0.7),
        ])
        assert s.error_prob(0, 1.0) == 0.7
        assert s.error_prob(0, 11.0) == 0.0

    def test_masked_at(self):
        s = self._mixed()
        assert s.masked_at(1.0) == frozenset({2})
        assert s.masked_at(6.0) == frozenset()
        assert s.masked_at(12.0) == frozenset({1})

    def test_event_order_is_canonical(self):
        events = [FaultEvent("down", 2, 1.0, 2.0),
                  FaultEvent("crash", 0, 1.0),
                  FaultEvent("slow", 1, 0.0, 5.0, factor=2.0)]
        a = FaultSchedule(events)
        b = FaultSchedule(reversed(events))
        assert a.events == b.events
        assert a == b and hash(a) == hash(b)
        assert a.cache_token() == b.cache_token()

    def test_dict_round_trip(self):
        s = self._mixed()
        clone = FaultSchedule.from_dict(s.to_dict())
        assert clone == s
        assert clone.retry == s.retry
        assert clone.n_modules == s.n_modules

    def test_module_bound_validated(self):
        with pytest.raises(ValueError):
            FaultSchedule([FaultEvent("crash", 9, 0.0)], n_modules=9)

    def test_constructors(self):
        crashed = FaultSchedule.crashes([0, 3])
        assert crashed.affected_modules == (0, 3)
        assert crashed.is_dead(3, 0.0)
        empty = FaultSchedule.none()
        assert not empty and len(empty) == 0
        assert bool(crashed)

    def test_read_error_draws_deterministic_and_uniform_range(self):
        s = FaultSchedule([], seed=7)
        draws = [s.read_error_draw(2, i) for i in range(50)]
        assert draws == [s.read_error_draw(2, i) for i in range(50)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) == 50
        # draws are keyed by module too
        assert s.read_error_draw(1, 0) != s.read_error_draw(2, 0)
        # ... and by schedule seed
        assert FaultSchedule([], seed=8).read_error_draw(2, 0) \
            != draws[0]


class TestFaultModel:
    def test_materialize_is_deterministic(self):
        model = FaultModel(crash_prob=0.3, down_rate=0.05,
                           slow_rate=0.05, error_rate=0.05)
        a = model.materialize(9, 100.0, seed=4)
        b = model.materialize(9, 100.0, seed=4)
        assert a == b
        assert a != model.materialize(9, 100.0, seed=5)

    def test_zero_rates_yield_empty_schedule(self):
        assert not FaultModel().materialize(9, 100.0, seed=0)

    def test_materialized_events_respect_bounds(self):
        model = FaultModel(crash_prob=0.5, down_rate=0.1,
                           slow_rate=0.1, error_rate=0.1)
        schedule = model.materialize(5, 50.0, seed=1)
        assert schedule.n_modules == 5
        for e in schedule.events:
            assert 0 <= e.module < 5
            assert 0.0 <= e.start <= 50.0
            assert e.kind in FAULT_KINDS

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(crash_prob=1.5)
        with pytest.raises(ValueError):
            FaultModel(down_rate=-1.0)
        with pytest.raises(ValueError):
            FaultModel(slow_mean_ms=0.0)
        with pytest.raises(ValueError):
            FaultModel().materialize(0, 1.0)
        with pytest.raises(ValueError):
            FaultModel().materialize(1, 0.0)
