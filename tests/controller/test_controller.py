"""Integration tests for the live controller
(:mod:`repro.controller.controller`) and its strategies."""

import pytest

from repro import obs
from repro.controller import (
    ControllerConfig,
    FIMReplan,
    ReplicationController,
    StaticPlacement,
)
from repro.experiments.common import play_workload
from repro.experiments.fig8 import make_parts
from repro.faults import FaultSchedule
from repro.flash.driver import OnlineStreamSession
from repro.mining.matching import FIMBlockMatcher
from repro.traces.records import Trace


def request_key(pr):
    return (pr.index, pr.interval, pr.delayed, pr.rejected,
            pr.io.response_ms, pr.io.total_ms)


@pytest.fixture(scope="module")
def parts():
    return make_parts("exchange", 0.25, 4, seed=11)


class TestIdentityContract:
    """Unbudgeted + fault-free controller == offline play_workload."""

    def test_deterministic_qos(self, parts):
        offline = play_workload(parts, n_devices=9, seed=3)
        live = ReplicationController(
            ControllerConfig(n_devices=9, seed=3)).run(parts)
        assert live.match_rates == offline.match_rates
        assert live.part_of_request == offline.part_of_request
        assert [request_key(p) for p in live.report.requests] == \
            [request_key(p) for p in offline.report.requests]
        assert live.report.guarantee_ms == offline.report.guarantee_ms

    def test_statistical_qos(self, parts):
        offline = play_workload(parts, n_devices=9, epsilon=0.05,
                                seed=3)
        live = ReplicationController(ControllerConfig(
            n_devices=9, epsilon=0.05, seed=3)).run(parts)
        assert [request_key(p) for p in live.report.requests] == \
            [request_key(p) for p in offline.report.requests]

    def test_workload_run_view(self, parts):
        live = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        run = live.workload_run()
        assert run.match_rates == live.match_rates
        assert run.per_part_series().overall().n_total > 0


class TestOverlappingParts:
    """Parts may overlap in time: the generator's part 14 (of the
    benchmark's Exchange x2 / 96-interval trace, seed 0) starts 0.05 ms
    before part 13's last arrival, with 8 requests spilling over.  The
    live loop, the offline loop and a 1-array cluster must still agree
    byte for byte; a cross-part overlap check would refuse this input."""

    @pytest.fixture(scope="class")
    def overlapping(self):
        from repro.traces.exchange import exchange_like_trace

        parts = exchange_like_trace(scale=2.0, n_intervals=96,
                                    seed=0)[12:17]
        assert parts[2].arrival_ms[0] < parts[1].arrival_ms[-1]
        return parts

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_controller_offline_and_cluster_agree(self, overlapping,
                                                  epsilon):
        from repro.cluster import ClusterConfig, ShardedCluster

        offline = play_workload(overlapping, n_devices=9,
                                epsilon=epsilon, seed=0)
        live = ReplicationController(ControllerConfig(
            n_devices=9, epsilon=epsilon, seed=0)).run(overlapping)
        one = ShardedCluster(ClusterConfig(
            n_arrays=1, n_devices=9, cross_replication=1,
            epsilon=epsilon, seed=0)).play(overlapping).arrays[0].report
        rows = [request_key(p) for p in offline.report.requests]
        assert [request_key(p) for p in live.report.requests] == rows
        assert [request_key(p) for p in one.requests] == rows
        assert live.match_rates == offline.match_rates
        state = offline.report.series.state()
        assert live.report.series.state() == state
        assert one.series.state() == state


class TestStaticBaseline:
    def test_never_migrates(self, parts):
        live = ReplicationController(
            ControllerConfig(n_devices=9),
            strategy=StaticPlacement()).run(parts)
        assert live.total_migration_cost == 0
        assert live.match_rates == [0.0] * len(parts)
        assert all(not a.replanned for a in live.audit)


class TestBudget:
    def test_budget_caps_moves_per_boundary(self, parts):
        live = ReplicationController(ControllerConfig(
            n_devices=9, migration_budget=5)).run(parts)
        assert all(a.deltas_applied <= 5 for a in live.audit)
        assert any(a.deltas_deferred > 0 for a in live.audit)
        unlimited = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        assert live.total_migration_cost \
            < unlimited.total_migration_cost

    def test_audit_trail_shape(self, parts):
        live = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        assert len(live.audit) == len(parts) - 1
        for record, part_idx in zip(live.audit, range(1, len(parts))):
            assert record.part == part_idx
            assert record.replanned
            assert record.n_transactions > 0
            assert record.migration_cost == record.deltas_applied * 3


class TestFaultAwareness:
    def test_never_replans_onto_dead_modules(self, parts):
        schedule = FaultSchedule.crashes([0, 1])
        live = ReplicationController(
            ControllerConfig(n_devices=9),
            faults=schedule).run(parts)
        assert all(a.excluded == (0, 1) for a in live.audit)
        # deltas onto design blocks touching dead devices were vetoed
        # (per-delta target checks live in the planner unit tests)
        assert any(a.deltas_blocked > 0 for a in live.audit)

    def test_faulted_run_still_deterministic(self, parts):
        schedule = FaultSchedule.crashes([2])
        runs = []
        for _ in range(2):
            live = ReplicationController(
                ControllerConfig(n_devices=9),
                faults=schedule).run(parts)
            runs.append([request_key(p)
                         for p in live.report.requests])
        assert runs[0] == runs[1]


class TestAdaptiveEpsilon:
    def test_requires_statistical_mode(self):
        with pytest.raises(ValueError, match="epsilon"):
            ControllerConfig(adapt_target_delayed_pct=2.0)

    def test_requires_fast_engine(self):
        # the DES plays nothing before its drain: each boundary would
        # read an empty interval and epsilon could only decay
        with pytest.raises(ValueError, match="fast engine"):
            ControllerConfig(epsilon=0.05, engine="des",
                             adapt_target_delayed_pct=2.0)
        ControllerConfig(epsilon=0.05, engine="des")
        ControllerConfig(epsilon=0.05, engine="fast",
                         adapt_target_delayed_pct=2.0)

    def test_epsilon_adapts_across_boundaries(self, parts):
        live = ReplicationController(ControllerConfig(
            n_devices=9, epsilon=0.05,
            adapt_target_delayed_pct=2.0)).run(parts)
        epsilons = [a.epsilon for a in live.audit]
        assert len(set(epsilons)) > 1 or epsilons[0] != 0.05


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="min_support"):
            ControllerConfig(min_support=0)
        with pytest.raises(ValueError, match="fim_window_ms"):
            ControllerConfig(fim_window_ms=0.0)


class TestPartValidation:
    """Parts are checked once, before anything is fed: a part whose
    arrivals go backwards would be mined and played in the wrong
    windows, silently breaking the identity contract."""

    def test_unsorted_part_raises_before_feeding(self, parts,
                                                 monkeypatch):
        bad = list(parts)
        arrivals = bad[0].arrival_ms.copy()
        i = next(k for k in range(1, len(arrivals) - 1)
                 if arrivals[k] < arrivals[k + 1])
        arrivals[[i, i + 1]] = arrivals[[i + 1, i]]
        bad[0] = Trace.from_arrays(arrivals, bad[0].block)

        def no_feed(*args, **kwargs):
            raise AssertionError("fed before validation")

        monkeypatch.setattr(OnlineStreamSession, "feed", no_feed)
        with pytest.raises(ValueError,
                           match=rf"part 0: arrival {i + 1} .* before "
                                 rf"arrival {i}"):
            ReplicationController(ControllerConfig(n_devices=9)).run(bad)

    def test_non_finite_arrival_raises(self, parts):
        bad = list(parts)
        arrivals = bad[2].arrival_ms.copy()
        arrivals[5] = float("nan")
        bad[2] = Trace.from_arrays(arrivals, bad[2].block)
        with pytest.raises(ValueError, match=r"part 2: arrival 5 is nan"):
            ReplicationController(ControllerConfig(n_devices=9)).run(bad)


class TestStrategies:
    def test_fim_replan_history_window(self, parts):
        matcher = FIMBlockMatcher(ReplicationController(
            ControllerConfig(n_devices=9)).qos.allocation)
        strategy = FIMReplan(matcher, history=2, decay=0.5)
        live = ReplicationController(
            ControllerConfig(n_devices=9),
            strategy=strategy).run(parts)
        assert any(a.deltas_applied > 0 for a in live.audit)

    def test_fim_replan_validation(self):
        matcher = FIMBlockMatcher(ReplicationController(
            ControllerConfig(n_devices=9)).qos.allocation)
        with pytest.raises(ValueError, match="history"):
            FIMReplan(matcher, history=0)
        with pytest.raises(ValueError, match="decay"):
            FIMReplan(matcher, decay=1.5)


class TestObservability:
    def test_controller_counters_and_ledger(self, parts):
        with obs.observed() as session:
            ReplicationController(ControllerConfig(
                n_devices=9, epsilon=0.05)).run(parts)
        payload = session.to_payload()
        counters = payload["request"]["metrics"]["counters"]
        assert counters["controller.boundary"] == len(parts) - 1
        assert counters["controller.replan"] == len(parts) - 1
        assert counters["controller.delta_applied"] > 0
        assert counters["qos.requests"] > 0

    def test_outputs_unchanged_under_observation(self, parts):
        plain = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        with obs.observed():
            observed = ReplicationController(
                ControllerConfig(n_devices=9)).run(parts)
        assert [request_key(p) for p in plain.report.requests] == \
            [request_key(p) for p in observed.report.requests]
