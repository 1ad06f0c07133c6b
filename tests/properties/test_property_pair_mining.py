"""Properties of the online boundary's two kernels.

* :func:`repro.mining.pairs.pair_counts` against its oracle,
  ``apriori(transactions_from_arrays(...), s, max_size=2)``: the same
  itemsets and supports, transaction count, length and pair order.
* :class:`repro.mining.matching.FIMBlockMatcher` (bitmasks and cached
  per-mask answers) against the set-intersection greedy in
  :mod:`tests.support.reference_matching`: the same mapping on random
  pair tables over several allocations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.base import AllocationScheme
from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.allocation.rda import RandomDuplicateAllocation
from repro.mining import FIMBlockMatcher, ItemsetCounts, apriori
from repro.mining.pairs import pair_counts
from repro.mining.transactions import transactions_from_arrays
from tests.support.reference_matching import ReferenceMatcher

WINDOWS = (0.133, 0.1, 1.0, 0.3)


def oracle(arrivals, blocks, window, support):
    return apriori(transactions_from_arrays(arrivals, blocks, window),
                   support, max_size=2)


def assert_same_itemsets(got: ItemsetCounts, want: ItemsetCounts):
    assert got == want
    assert got.n_transactions == want.n_transactions
    assert len(got) == len(want)
    assert got.pairs() == want.pairs()


@st.composite
def read_columns(draw):
    """Reads whose arrivals sit on a window grid from ``origin`` (ties,
    window edges, values a hair either side of them, and edges that
    ``(arr - arr[0]) / window`` rounds an ulp short) or anywhere, in
    any order, over a small block pool that may sit above 2**32."""
    window = draw(st.sampled_from(WINDOWS))
    origin = draw(st.sampled_from([0.0, 0.05, 0.7, 3.3]))
    n = draw(st.integers(0, 40))
    offset = draw(st.sampled_from([0, 1 << 33, (1 << 62) - 64]))
    nudge = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-10]))
    arrivals = []
    for _ in range(n):
        if draw(st.booleans()):
            k = draw(st.integers(0, 12))
            arrivals.append(origin + k * window + draw(st.sampled_from(
                [0.0, nudge, window / 2])))
        else:
            arrivals.append(origin + draw(st.floats(0, 12 * window,
                                                    allow_nan=False)))
    arrivals = [max(a, 0.0) for a in arrivals]
    blocks = [offset + draw(st.integers(0, 9)) for _ in range(n)]
    return np.array(arrivals, dtype=np.float64), \
        np.array(blocks, dtype=np.int64), window


@settings(max_examples=150, deadline=None)
@given(read_columns(), st.integers(1, 4))
def test_pair_counts_equal_apriori(columns, support):
    arrivals, blocks, window = columns
    assert_same_itemsets(pair_counts(arrivals, blocks, window, support),
                         oracle(arrivals, blocks, window, support))


@pytest.mark.parametrize("arrivals,blocks,window", [
    ([], [], 0.133),                                # no reads
    ([0.5], [7], 0.133),                            # one read
    ([0.0, 0.01, 0.02], [3, 3, 3], 0.133),          # one block, repeated
    ([0.0, 0.0, 0.0, 0.0], [1, 2, 1, 2], 0.133),    # ties, duplicates
    ([0.3, 0.0, 0.2, 0.1], [4, 1, 3, 2], 0.133),    # unsorted arrivals
    # 0.3 / 0.1 is 2.9999999999999996: the +1e-9 puts it in window 3
    ([0.0, 0.25, 0.3], [1, 2, 3], 0.1),
    ([0.7, 0.95, 1.0], [1, 2, 3], 0.1),
    ([0.0, 0.01], [(1 << 40) + 1, 1 << 40], 0.133),  # ids above 2**32
])
@pytest.mark.parametrize("support", [1, 2])
def test_pair_counts_edge_cases(arrivals, blocks, window, support):
    got = pair_counts(arrivals, blocks, window, support)
    assert_same_itemsets(got, oracle(arrivals, blocks, window, support))
    # the columnar container answers like the dict-built one
    for itemset, count in got.items():
        assert got.support(itemset) == count and itemset in got


def test_window_edge_splits_the_pair():
    assert pair_counts([0.0, 0.25, 0.3], [1, 2, 3], 0.1).pairs() == []


def test_pair_counts_rows_are_ordered():
    # supports 3, 2, 2, 1: descending support, ties by items
    arrivals = [0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    blocks = [5, 6, 9, 5, 6, 5, 6, 9, 5]
    got = pair_counts(arrivals, blocks, 0.5)
    assert got.pairs() == [(5, 6, 3), (5, 9, 2), (6, 9, 1)]
    assert len(got) == 3 + 3


ALLOCATIONS = {
    "design-9": DesignTheoreticAllocation.from_parameters(9, 3),
    "design-13": DesignTheoreticAllocation.from_parameters(13, 3),
    "rda-20": RandomDuplicateAllocation(20, 3, n_buckets=40, seed=1),
}


@st.composite
def pair_tables(draw):
    """``ItemsetCounts`` holding up to 250 random pairs over
    ``n_blocks`` data blocks with supports 1..``top`` (ties are
    common), dense enough that neighbourhoods often cover every
    device.  The pairs come from a drawn seed, which keeps a 250-pair
    table one draw."""
    n_blocks = draw(st.integers(2, 60))
    top = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_pairs = draw(st.integers(0, 250))
    a, b = rng.integers(0, n_blocks, (2, n_pairs)) * 7919
    counts = {frozenset((x, y)): s for x, y, s in zip(
        a.tolist(), b.tolist(), rng.integers(1, top + 1, n_pairs).tolist())
        if x != y}
    return ItemsetCounts(counts, n_transactions=n_pairs, min_support=1)


@pytest.mark.parametrize("name", sorted(ALLOCATIONS))
@settings(max_examples=150, deadline=None)
@given(table=pair_tables())
def test_matcher_equals_reference(name, table):
    alloc = ALLOCATIONS[name]
    got = FIMBlockMatcher(alloc).match(table)
    want = ReferenceMatcher(alloc).match(table)
    assert got.mapping == want.mapping
    assert got.matched_blocks == want.matched_blocks


@pytest.mark.parametrize("name", sorted(ALLOCATIONS))
@settings(max_examples=50, deadline=None)
@given(history=st.lists(pair_tables(), min_size=0, max_size=4),
       decay=st.sampled_from([0.0, 0.5, 1.0]))
def test_matcher_history_equals_reference(name, history, decay):
    alloc = ALLOCATIONS[name]
    got = FIMBlockMatcher(alloc).match_history(history, decay)
    want = ReferenceMatcher(alloc).match_history(history, decay)
    assert got.mapping == want.mapping


@pytest.mark.parametrize("name", sorted(ALLOCATIONS))
def test_matcher_full_neighbourhoods(name):
    # an equal-support clique larger than the design maps blocks 0, 1,
    # 2, ... in turn, each after all its neighbours: soon their devices
    # cover the array, then block n finds every design block taken
    # (the modulo fallback), and the cursor wraps past n
    alloc = ALLOCATIONS[name]
    n = alloc.n_buckets
    table = ItemsetCounts(
        {frozenset((a, b)): 1
         for a in range(n + 6) for b in range(a + 1, n + 6)},
        n_transactions=1, min_support=1)
    matcher = FIMBlockMatcher(alloc)
    got = matcher.match(table)
    assert got.mapping == ReferenceMatcher(alloc).match(table).mapping
    assert sorted(got.mapping[b] for b in range(n)) == list(range(n))
    assert [got.mapping[b] for b in range(n, n + 6)] == \
        [b % n for b in range(n, n + 6)]
    # the cached answers serve a second call unchanged
    assert matcher.match(table).mapping == got.mapping


def test_matcher_rejects_deviceless_design_block():
    class Hollow(AllocationScheme):
        n_devices, replication, n_buckets = 3, 1, 4

        def devices_for(self, bucket):
            return () if bucket % 4 == 0 else (bucket % 3,)

    with pytest.raises(ValueError, match="device"):
        FIMBlockMatcher(Hollow())
