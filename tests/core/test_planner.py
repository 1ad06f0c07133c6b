"""Unit tests for the SLA planner."""

import pytest

from repro.core.planner import SLO, Plan, plan_configurations
from repro.flash.params import MSR_SSD_PARAMS

READ = MSR_SSD_PARAMS.read_ms


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(response_ms=0.0, requests_per_ms=1.0)
        with pytest.raises(ValueError):
            SLO(response_ms=1.0, requests_per_ms=0.0)


class TestPlanning:
    def test_every_plan_meets_the_slo(self):
        slo = SLO(response_ms=0.4, requests_per_ms=30.0)
        for plan in plan_configurations(slo):
            assert plan.accesses * READ <= slo.response_ms + 1e-9
            assert plan.throughput_per_ms >= slo.requests_per_ms
            assert plan.interval_ms == pytest.approx(
                plan.accesses * READ)

    def test_sorted_by_storage_cost(self):
        slo = SLO(response_ms=0.4, requests_per_ms=20.0)
        plans = plan_configurations(slo)
        costs = [p.n_devices * p.replication for p in plans]
        assert costs == sorted(costs)

    def test_tight_response_forces_m1(self):
        slo = SLO(response_ms=0.14, requests_per_ms=10.0)
        plans = plan_configurations(slo)
        assert plans
        assert all(p.accesses == 1 for p in plans)

    def test_infeasible_returns_empty(self):
        # impossible rate for any catalog configuration at M = 1
        slo = SLO(response_ms=0.14, requests_per_ms=10_000.0)
        assert plan_configurations(slo) == []

    def test_capacity_capped_by_devices(self):
        # S(M) can exceed N*M; the plan must use the physical bound
        slo = SLO(response_ms=0.4, requests_per_ms=1.0)
        plans = plan_configurations(slo, device_counts=(7,),
                                    replications=(3,))
        for p in plans:
            assert p.capacity_per_interval <= \
                p.n_devices * p.accesses

    def test_two_copy_plans_available(self):
        slo = SLO(response_ms=0.3, requests_per_ms=10.0)
        plans = plan_configurations(slo, replications=(2,))
        assert plans
        assert all(p.replication == 2 for p in plans)

    def test_describe_mentions_design(self):
        slo = SLO(response_ms=0.3, requests_per_ms=10.0)
        plan = plan_configurations(slo)[0]
        assert plan.design_name in plan.describe()

    def test_max_plans_respected(self):
        slo = SLO(response_ms=0.5, requests_per_ms=5.0)
        assert len(plan_configurations(slo, max_plans=3)) <= 3


class TestIntervalBoundaries:
    """T = M * read_ms is the boundary at which QoS state resets and
    the live controller replans; pin the boundary algebra."""

    def test_response_exactly_on_a_boundary_is_feasible(self):
        # 40 req/ms needs M = 2 (M = 1 tops out at ~37.7 req/ms); a
        # response target of exactly 2 service times still admits it
        slo = SLO(response_ms=2 * READ, requests_per_ms=40.0)
        plans = plan_configurations(slo)
        assert plans
        assert all(p.accesses == 2 for p in plans)
        # shaving the target below the boundary kills every plan
        tight = SLO(response_ms=2 * READ - 1e-6, requests_per_ms=40.0)
        assert plan_configurations(tight) == []

    def test_just_below_a_boundary_drops_an_access(self):
        slo = SLO(response_ms=2 * READ - 1e-6, requests_per_ms=1.0)
        plans = plan_configurations(slo)
        assert plans
        assert all(p.accesses == 1 for p in plans)

    def test_smallest_sufficient_interval_per_design(self):
        from repro.core.guarantees import guarantee_capacity

        slo = SLO(response_ms=0.5, requests_per_ms=5.0)
        plans = plan_configurations(slo)
        # one plan per (N, c): the search breaks at the smallest M
        keys = [(p.n_devices, p.replication) for p in plans]
        assert len(keys) == len(set(keys))
        for p in plans:
            if p.accesses == 1:
                continue
            m = p.accesses - 1
            s = min(guarantee_capacity(m, p.replication),
                    p.n_devices * m)
            assert s / (m * READ) < slo.requests_per_ms
