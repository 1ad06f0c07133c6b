"""Unit tests for the bitset retrieval kernels."""

import numpy as np
import pytest

from repro.graph import kernels
from repro.graph.kernels import (
    MISS, SAMPLER_CACHE, LruCache, WarmStartMatcher,
    batch_feasible, batch_mask_array, block_mask_array, feasible,
    hall_feasible_many, mask_of, masks_of, minimum_accesses_many,
)
from repro.graph.kuhn import capacitated_assignment, \
    capacitated_feasible
from repro.graph.matching import bounded_degree_assignment


@pytest.fixture(autouse=True)
def _cold_caches():
    kernels.clear_caches()
    yield
    kernels.clear_caches()


# -- bitset encoding -----------------------------------------------------

def test_mask_of_roundtrip():
    assert mask_of([0, 2, 5], 9) == 0b100101
    assert mask_of([], 9) == 0
    assert masks_of([[0], [1, 2]], 4) == [1, 6]


def test_mask_of_rejects_out_of_range_device():
    with pytest.raises(ValueError):
        mask_of([9], 9)


def test_mask_arrays_dtype_and_shape():
    blocks = [(0, 1, 2), (3, 4, 5)]
    arr = block_mask_array(blocks, 9)
    assert arr.dtype == np.uint64
    assert arr.tolist() == [0b111, 0b111000]
    batches = batch_mask_array([blocks, blocks], 9)
    assert batches.shape == (2, 2)


# -- Hall feasibility ----------------------------------------------------

def test_hall_rejects_wide_arrays():
    with pytest.raises(ValueError):
        hall_feasible_many(np.zeros((1, 2), dtype=np.uint64), 17, 1)


def test_hall_empty_batch_always_feasible():
    out = hall_feasible_many(np.zeros((3, 0), dtype=np.uint64), 4, 0)
    assert out.tolist() == [True, True, True]


def test_hall_pigeonhole():
    # three requests confined to one device, capacity 2: infeasible
    masks = np.array([[1, 1, 1], [1, 1, 2]], dtype=np.uint64)
    out = hall_feasible_many(masks, 2, 2)
    assert out.tolist() == [False, True]


def test_hall_matmul_and_zeta_branches_agree():
    rng = np.random.default_rng(7)
    n_dev, k = 6, 8
    full = (1 << n_dev) - 1
    # narrow vocabulary -> matmul branch; jittered -> zeta branch
    narrow = rng.integers(1, 5, size=(40, k)).astype(np.uint64)
    wide = rng.integers(1, full + 1, size=(40, k)).astype(np.uint64)
    for masks in (narrow, wide):
        got = hall_feasible_many(masks, n_dev, 2)
        want = [capacitated_feasible(
            [[d for d in range(n_dev) if int(m) >> d & 1]
             for m in row], n_dev, 2) for row in masks]
        assert got.tolist() == want


# -- batch_feasible ------------------------------------------------------

def test_batch_feasible_shape_and_bounds_checks():
    with pytest.raises(ValueError):
        batch_feasible(np.zeros(3, dtype=np.uint64), 4, 1)
    with pytest.raises(ValueError):
        batch_feasible(np.zeros((1, 1), dtype=np.uint64), 65, 1)


def test_batch_feasible_edges():
    empty_batch = np.zeros((2, 0), dtype=np.uint64)
    assert batch_feasible(empty_batch, 4, 0).all()
    some = np.array([[1, 2]], dtype=np.uint64)
    assert not batch_feasible(some, 4, 0).any()
    with_hole = np.array([[1, 0]], dtype=np.uint64)
    assert not batch_feasible(with_hole, 4, 2).any()


def test_batch_feasible_matches_kuhn_randomized():
    rng = np.random.default_rng(11)
    for n_dev in (4, 9, 13):
        full = (1 << n_dev) - 1
        masks = rng.integers(1, full + 1, size=(60, 5)) \
            .astype(np.uint64)
        for cap in (1, 2):
            got = batch_feasible(masks, n_dev, cap)
            want = [capacitated_feasible(
                [[d for d in range(n_dev) if int(m) >> d & 1]
                 for m in row], n_dev, cap) for row in masks]
            assert got.tolist() == want


def test_batch_feasible_wide_devices_uses_row_fallback():
    # N = 20 > HALL_MAX_DEVICES: greedy certificate + Kuhn fallback
    masks = np.array([[1, 1, 1], [1, 2, 4]], dtype=np.uint64)
    out = batch_feasible(masks, 20, 1)
    assert out.tolist() == [False, True]


# -- single-batch feasible / minimum accesses ----------------------------

def test_feasible_edges():
    assert feasible([], 9, 0)
    assert not feasible([[0]], 9, 0)
    assert not feasible([[], [0]], 9, 3)
    assert feasible([[0], [0], [0]], 9, 3)
    assert not feasible([[0], [0], [0]], 9, 2)


def test_minimum_accesses_many_matches_maxflow():
    from repro.retrieval.maxflow import maxflow_retrieval

    rng = np.random.default_rng(3)
    n_dev = 9
    batches = [[[int(d) for d in rng.choice(n_dev, size=3,
                                            replace=False)]
                for _ in range(7)] for _ in range(25)]
    masks = batch_mask_array(batches, n_dev)
    got = minimum_accesses_many(masks, n_dev)
    want = [maxflow_retrieval(b, n_dev).accesses for b in batches]
    assert got.tolist() == want


def test_minimum_accesses_many_empty():
    out = minimum_accesses_many(np.zeros((4, 0), dtype=np.uint64), 9)
    assert out.tolist() == [0, 0, 0, 0]


# -- memoization ---------------------------------------------------------

def test_lru_cache_hit_miss_and_eviction():
    cache = LruCache("t", maxsize=2)
    assert cache.get("a") is MISS
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1     # refreshes recency
    cache.put("c", 3)              # evicts b, the LRU entry
    assert cache.get("b") is MISS
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats["hits"] == 3 and stats["misses"] == 2
    assert stats["size"] == 2
    cache.clear()
    assert cache.stats() == {"size": 0, "maxsize": 2,
                             "hits": 0, "misses": 0}


def test_lru_cache_caches_falsy_values():
    cache = LruCache("t", maxsize=4)
    cache.put("k", False)
    assert cache.get("k") is False


def test_lru_cache_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        LruCache("t", maxsize=0)


def test_clear_caches_resets_stats():
    SAMPLER_CACHE.put("k", 0.5)
    assert SAMPLER_CACHE.get("k") == 0.5
    kernels.clear_caches()
    stats = kernels.cache_stats()
    assert all(s["hits"] == 0 and s["misses"] == 0 and s["size"] == 0
               for s in stats.values())


# -- warm-started matching -----------------------------------------------

def _check_matcher_invariants(matcher, live):
    loads = [0] * matcher.n_devices
    for rid, cands in live.items():
        device = matcher.assignment_of(rid)
        if device >= 0:
            assert device in cands
            loads[device] += 1
    assert loads == matcher._loads
    assert max(loads, default=0) <= matcher.capacity


def test_warm_start_matches_scratch_solves_on_random_trace():
    rng = np.random.default_rng(19)
    n_dev, cap = 9, 2
    matcher = WarmStartMatcher(n_dev, cap)
    live = {}
    for step in range(300):
        if live and rng.random() < 0.4:
            rid = int(rng.choice(list(live)))
            del live[rid]
            matcher.remove(rid)
        else:
            cands = [int(d) for d in rng.choice(
                n_dev, size=int(rng.integers(1, 4)), replace=False)]
            live[matcher.add(cands)] = cands
        want = capacitated_feasible(list(live.values()), n_dev, cap)
        assert matcher.feasible == want
        _check_matcher_invariants(matcher, live)


def test_warm_start_min_accesses_matches_maxflow():
    from repro.retrieval.maxflow import maxflow_retrieval

    rng = np.random.default_rng(23)
    n_dev = 9
    matcher = WarmStartMatcher(n_dev, 2)
    live = {}
    for _ in range(40):
        cands = [int(d) for d in rng.choice(n_dev, size=3,
                                            replace=False)]
        live[matcher.add(cands)] = cands
    assert matcher.min_accesses() \
        == maxflow_retrieval(list(live.values()), n_dev).accesses


def test_warm_start_edges():
    matcher = WarmStartMatcher(4, 0)
    rid = matcher.add([0, 1])
    assert not matcher.feasible and matcher.unmatched == 1
    matcher.remove(rid)
    assert matcher.feasible and len(matcher) == 0
    assert matcher.accesses() == 0
    assert matcher.min_accesses() == 0
    with pytest.raises(ValueError):
        WarmStartMatcher(0, 1)
    with pytest.raises(ValueError):
        WarmStartMatcher(4, -1)


def test_warm_start_min_accesses_rejects_empty_candidates():
    matcher = WarmStartMatcher(4, 1)
    matcher.add([])
    with pytest.raises(ValueError):
        matcher.min_accesses()


# -- wide arrays (N > 64): feasible() is Kuhn ----------------------------

def test_csr_assignment_edges():
    n_dev = 70
    assert feasible([], n_dev, 1)
    assert not feasible([[0]], n_dev, 0)
    with pytest.raises(ValueError):
        feasible([[0]], n_dev, -1)
    with pytest.raises(ValueError):
        feasible([[n_dev]], n_dev, 1)


def test_csr_assignment_matches_kuhn_randomized():
    rng = np.random.default_rng(29)
    for n_dev in (65, 80):
        for _ in range(30):
            k = int(rng.integers(0, 12))
            cands = [[int(d) for d in rng.choice(
                5, size=int(rng.integers(1, 4)), replace=False)]
                for _ in range(k)]
            cap = int(rng.integers(1, 3))
            want = bounded_degree_assignment(cands, n_dev, cap)
            assert feasible(cands, n_dev, cap) == (want is not None)


def test_csr_assignment_beyond_bitset_width():
    n_dev = 80  # > BITSET_MAX_DEVICES
    cands = [[d, (d + 1) % n_dev] for d in range(n_dev)]
    out = capacitated_assignment(cands, n_dev, 1)
    assert out is not None
    assert sorted(out) == sorted(set(out))  # capacity-1: all distinct
    assert feasible(cands, n_dev, 1)
    assert not feasible(cands + [[0, 1]], n_dev, 1)
