"""Unit tests for :class:`repro.controller.boundary.BoundaryStep`: the
per-array feed / mine / plan / re-map step of the live controller and
of every cluster array."""

import numpy as np
import pytest

from repro.controller.boundary import BoundaryStep
from repro.core.qos import QoSFlashArray
from repro.experiments.fig8 import make_parts
from repro.mining.apriori import apriori
from repro.mining.matching import FIMBlockMatcher
from repro.mining.transactions import transactions_from_trace
from repro.traces.records import Trace


@pytest.fixture(scope="module")
def allocation():
    return QoSFlashArray(n_devices=9).allocation


def _pairs(pattern, n_pairs=20, t0=0.0, is_read=True):
    """``n_pairs`` windows in which both ``pattern`` blocks are hit."""
    arrivals, blocks = [], []
    t = t0
    for _ in range(n_pairs):
        t += 0.5
        arrivals += [t, t + 0.001]
        blocks += list(pattern)
    return Trace.from_arrays(np.array(arrivals),
                             np.array(blocks, dtype=np.int64),
                             is_read=[is_read] * len(blocks))


class TestOracleRule:
    def test_each_boundary_matches_the_oracle(self, allocation):
        parts = make_parts("exchange", 0.25, 4, seed=11)
        step = BoundaryStep(allocation)
        matcher = FIMBlockMatcher(allocation)
        for i, part in enumerate(parts):
            if i > 0:
                txns = transactions_from_trace(parts[i - 1], 0.133)
                itemsets = apriori(txns, 1, max_size=2)
                oracle = matcher.match(itemsets)
                n_txns, mined, plan = step.boundary()
                assert n_txns == len(txns)
                assert mined == itemsets
                assert len(mined) == len(itemsets)
                assert mined.pairs() == itemsets.pairs()
                assert plan.mapping is step.match
                assert step.match.mapping == oracle.mapping
                assert step.match.matched_blocks == oracle.matched_blocks
            buckets = step.feed(part)
            assert buckets == step.match.map_blocks(part.block)


class TestEmptyInterval:
    def test_no_reads_resets_to_modulo(self, allocation):
        step = BoundaryStep(allocation)
        step.feed(_pairs((3, 7)))
        step.boundary()
        assert step.match.mapping, "the pair should have been matched"
        n_txns, itemsets, plan = step.boundary()
        assert n_txns == 0 and len(itemsets) == 0
        assert step.match.mapping == {}
        assert {(d.block, d.new) for d in plan.applied} == \
            {(3, 3), (7, 7)}
        n = allocation.n_buckets
        assert step.feed(_pairs((3, 7))) == [3 % n, 7 % n] * 20

    def test_writes_are_not_mined(self, allocation):
        step = BoundaryStep(allocation)
        step.feed(_pairs((3, 7)))
        step.boundary()
        step.feed(_pairs((3, 7), t0=100.0, is_read=False))
        n_txns, itemsets, _plan = step.boundary()
        assert n_txns == 0 and len(itemsets) == 0
        assert step.match.mapping == {}
