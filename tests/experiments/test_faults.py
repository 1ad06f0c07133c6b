"""The faults experiment's bulk cell metrics against reference loops."""

import numpy as np

from repro.experiments.faults import played_metrics
from repro.flash.array import IORequest
from repro.flash.played import PlayedRequest, PlayedTable


class TestPlayedMetrics:
    @staticmethod
    def _PR(response, rejected=False, failed=False, delayed=False):
        io = IORequest(arrival=0.0, bucket=0, completed_at=response,
                       failed=failed)
        return PlayedRequest(io, 0, delayed, rejected=rejected)

    def test_matches_reference_loops(self):
        rng = np.random.default_rng(3)
        guarantee = 0.132507
        played = [self._PR(float(rng.uniform(0, 0.4)),
                           rejected=bool(rng.random() < 0.1),
                           failed=bool(rng.random() < 0.1),
                           delayed=bool(rng.random() < 0.3))
                  for _ in range(500)]
        served = [p for p in played if not p.rejected and not p.failed]
        failed = sum(1 for p in played if p.failed)
        violations = failed + sum(
            1 for p in served
            if p.io.response_ms > guarantee + 1e-9)
        considered = len(served) + failed
        expect = (
            sum(p.io.response_ms for p in served) / len(served),
            100.0 * sum(1 for p in served if p.delayed) / considered,
            float(failed),
            violations / considered,
        )
        assert played_metrics(PlayedTable.from_requests(played),
                              guarantee) == expect

    def test_empty_and_all_rejected(self):
        assert played_metrics(PlayedTable.empty(), 0.1) == \
            (0.0, 0.0, 0.0, 0.0)
        played = [self._PR(0.2, rejected=True) for _ in range(5)]
        assert played_metrics(PlayedTable.from_requests(played), 0.1) \
            == (0.0, 0.0, 0.0, 0.0)
