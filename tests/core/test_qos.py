"""Unit tests for the QoSFlashArray facade."""

import numpy as np
import pytest

from repro.core import QoSFlashArray
from tests.support.builders import READ_MS as READ
from tests.support.builders import paper_array, trace_pair


@pytest.fixture(scope="module")
def qos():
    return paper_array()


class TestConfiguration:
    def test_paper_defaults(self, qos):
        assert qos.n_devices == 9
        assert qos.replication == 3
        assert qos.n_buckets == 36
        assert qos.capacity_per_interval == 5
        assert qos.guarantee_ms == pytest.approx(READ)

    def test_accesses_derived_from_interval(self):
        q2 = QoSFlashArray(interval_ms=0.266)
        assert q2.accesses == 2
        assert q2.capacity_per_interval == 14
        q3 = QoSFlashArray(interval_ms=0.399)
        assert q3.accesses == 3
        assert q3.capacity_per_interval == 27

    def test_13_device_variant(self):
        q = QoSFlashArray(n_devices=13, replication=3)
        assert q.n_buckets == 78

    def test_probability_table_cached(self):
        q = QoSFlashArray(sampler_trials=50)
        t1 = q.probabilities()
        t2 = q.probabilities()
        assert t1 is t2
        assert t1[1] == 1.0


class TestRunModes:
    def _trace(self, per_interval=5, n=500, seed=0):
        return trace_pair(per_interval, n=n, seed=seed)

    def test_batch_within_guarantee(self, qos):
        arrivals, buckets = self._trace()
        rep = qos.run_batch(arrivals, buckets)
        assert rep.guarantee_met
        assert rep.max_response_ms == pytest.approx(READ)
        assert rep.pct_delayed == 0.0

    def test_online_within_guarantee(self, qos):
        arrivals, buckets = self._trace(seed=3)
        rep = qos.run_online(arrivals, buckets)
        assert rep.guarantee_met
        assert rep.avg_response_ms == pytest.approx(READ)

    def test_online_over_budget_delays(self, qos):
        # 7 > S = 5 simultaneous requests: delays, but the guarantee on
        # undelayed responses holds
        arrivals = [0.0] * 7
        buckets = list(range(7))
        rep = qos.run_online(arrivals, buckets)
        assert rep.guarantee_met
        assert rep.overall.n_delayed == 2

    def test_summary_keys(self, qos):
        arrivals, buckets = self._trace(n=50)
        s = qos.run_batch(arrivals, buckets).summary()
        for key in ("avg", "std", "max", "pct_delayed", "avg_delay",
                    "guarantee_ms", "guarantee_met", "n"):
            assert key in s

    def test_statistical_mode_builds_probabilities(self):
        q = QoSFlashArray(epsilon=0.01, sampler_trials=50)
        arrivals, buckets = self._trace(n=100)
        rep = q.run_online(arrivals, buckets)
        assert rep.overall.n_total == 100

    def test_guarantee_flag_reflects_violations(self, qos):
        # sanity: guarantee_met is computed from responses
        arrivals, buckets = self._trace(n=100)
        rep = qos.run_batch(arrivals, buckets)
        assert rep.guarantee_met
        rep.requests.completed[0] += 1.0  # columns are views
        assert not rep.guarantee_met


class TestFacadeWriteAndTenantPassthrough:
    def test_run_online_with_writes(self, qos):
        arrivals = [0.0, 0.133]
        buckets = [0, 10]
        rep = qos.run_online(arrivals, buckets, reads=[False, True])
        writes = [r for r in rep.requests if not r.io.is_read]
        assert len(writes) == 1
        assert writes[0].io.response_ms == pytest.approx(
            qos.params.write_ms)
