"""Shared input-validation contract across all four miners.

Every miner must reject ``min_support < 1`` (it would silently return
*everything*) and ``max_size < 1`` with a ``ValueError`` -- the same
message-bearing behaviour whether the miner is batch or streaming.
"""

import pytest

from repro.mining import apriori, eclat, fpgrowth
from repro.mining.streaming import StreamingFPGrowth

TXNS = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 2, 3})]

BATCH_MINERS = [apriori, eclat, fpgrowth]


@pytest.mark.parametrize("miner", BATCH_MINERS,
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("bad_support", [0, -1, -100])
def test_batch_rejects_bad_min_support(miner, bad_support):
    with pytest.raises(ValueError, match="min_support"):
        miner(TXNS, bad_support, max_size=2)


@pytest.mark.parametrize("miner", BATCH_MINERS,
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("bad_size", [0, -1])
def test_batch_rejects_bad_max_size(miner, bad_size):
    with pytest.raises(ValueError, match="max_size"):
        miner(TXNS, 1, max_size=bad_size)


@pytest.mark.parametrize("bad_support", [0, -1, -100])
def test_streaming_rejects_bad_min_support(bad_support):
    with pytest.raises(ValueError, match="min_support"):
        StreamingFPGrowth(min_support=bad_support)
    miner = StreamingFPGrowth()
    miner.add_many(TXNS)
    with pytest.raises(ValueError, match="min_support"):
        miner.mine(min_support=bad_support)


@pytest.mark.parametrize("bad_size", [0, -1])
def test_streaming_rejects_bad_max_size(bad_size):
    with pytest.raises(ValueError, match="max_size"):
        StreamingFPGrowth(max_size=bad_size)
    miner = StreamingFPGrowth()
    miner.add_many(TXNS)
    with pytest.raises(ValueError, match="max_size"):
        miner.mine(max_size=bad_size)


@pytest.mark.parametrize("miner", BATCH_MINERS,
                         ids=lambda m: m.__name__)
def test_valid_edges_accepted(miner):
    # min_support == 1 and max_size == 1 are the smallest legal values
    result = miner(TXNS, 1, max_size=1)
    assert result.support({2}) == 3


def _entry_points():
    from repro.allocation.design_theoretic import \
        DesignTheoreticAllocation
    from repro.cluster import ClusterConfig
    from repro.controller import BoundaryStep, ControllerConfig
    from repro.experiments.common import play_workload
    from repro.mining.pairs import pair_counts
    from repro.mining.streaming import StreamingTransactions
    from repro.mining.transactions import transactions_from_arrays
    from repro.traces.records import Trace

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    part = Trace.from_arrays([0.0, 0.1], [1, 2])
    return {
        "ControllerConfig": lambda w: ControllerConfig(fim_window_ms=w),
        "ClusterConfig": lambda w: ClusterConfig(fim_window_ms=w),
        "BoundaryStep": lambda w: BoundaryStep(alloc, fim_window_ms=w),
        "transactions_from_arrays": lambda w: transactions_from_arrays(
            [0, 0.1, 5, 9], [1, 2, 3, 4], w),
        "pair_counts": lambda w: pair_counts(
            [0, 0.1, 5, 9], [1, 2, 3, 4], w),
        "StreamingTransactions": lambda w: StreamingTransactions(
            w, lambda txn: None),
        "play_workload": lambda w: play_workload(
            [part, part], n_devices=9, fim_window_ms=w),
    }


ENTRY_POINTS = ["ControllerConfig", "ClusterConfig", "BoundaryStep",
                "transactions_from_arrays", "pair_counts",
                "StreamingTransactions", "play_workload"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("window", [float("nan"), float("inf"),
                                    float("-inf"), 0.0, -1.0])
def test_fim_window_must_be_finite_and_positive(entry, window):
    # a NaN or infinite window would make every read of an interval
    # one transaction (quadratic pair counting); each entry point
    # refuses it up front, naming the value
    with pytest.raises(ValueError, match="finite number > 0"):
        _entry_points()[entry](window)
