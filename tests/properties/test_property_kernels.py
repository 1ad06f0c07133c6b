"""Property tests: every retrieval solver answers identically.

The bitset kernels, the warm-started matcher, the reference Kuhn
matcher and the flow-based scheduler are four implementations of the
same combinatorial question; any disagreement on any instance is a bug
in one of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.kernels import WarmStartMatcher, batch_mask_array, \
    feasible, minimum_accesses_many
from repro.graph.kuhn import capacitated_feasible
from repro.graph.matching import bounded_degree_assignment

instances = st.tuples(
    st.integers(2, 9),                       # n_devices
    st.integers(0, 3),                       # capacity
    st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4),
             min_size=0, max_size=12),       # raw candidates
)


def _clean(n_devices, raw):
    return [sorted({b % n_devices for b in c}) for c in raw]


@settings(max_examples=200)
@given(instances)
def test_all_solvers_agree_on_feasibility(params):
    n_devices, cap, raw = params
    cands = _clean(n_devices, raw)
    want = capacitated_feasible(cands, n_devices, cap)
    assert feasible(cands, n_devices, cap) == want
    assert (bounded_degree_assignment(cands, n_devices, cap)
            is not None) == want
    matcher = WarmStartMatcher(n_devices, cap)
    for c in cands:
        matcher.add(c)
    assert matcher.feasible == want


@settings(max_examples=150)
@given(instances)
def test_batch_feasible_agrees_with_kuhn(params):
    n_devices, cap, raw = params
    cands = [c for c in _clean(n_devices, raw) if c]
    if not cands:
        return
    masks = batch_mask_array([cands], n_devices)
    got = bool(kernels.batch_feasible(masks, n_devices, cap)[0])
    assert got == capacitated_feasible(cands, n_devices, cap)


@settings(max_examples=100)
@given(st.integers(2, 9),
       st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4),
                min_size=1, max_size=10))
def test_optimal_access_count_agrees_with_maxflow(n_devices, raw):
    from repro.retrieval.maxflow import maxflow_retrieval

    cands = [sorted({b % n_devices for b in c}) for c in raw]
    want = maxflow_retrieval(cands, n_devices).accesses
    masks = batch_mask_array([cands], n_devices)
    assert int(minimum_accesses_many(masks, n_devices)[0]) == want
    matcher = WarmStartMatcher(n_devices, 1)
    for c in cands:
        matcher.add(c)
    assert matcher.min_accesses() == want


@settings(max_examples=60)
@given(st.integers(65, 90), st.integers(1, 2),
       st.lists(st.lists(st.integers(0, 89), min_size=1, max_size=3),
                min_size=0, max_size=10))
def test_wide_array_fallback_agrees_with_kuhn(n_devices, cap, raw):
    # N > 64: no bitset encoding; feasible() routes to Kuhn, which
    # must agree with the flow formulation
    cands = [sorted({b % n_devices for b in c}) for c in raw]
    want = bounded_degree_assignment(cands, n_devices, cap) is not None
    assert feasible(cands, n_devices, cap) == want
    assert capacitated_feasible(cands, n_devices, cap) == want


@settings(max_examples=60)
@given(st.integers(2, 9),
       st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=3),
                min_size=0, max_size=8))
def test_capacity_zero_feasible_only_when_empty(n_devices, raw):
    cands = _clean(n_devices, raw)
    assert feasible(cands, n_devices, 0) == (len(cands) == 0)


@settings(max_examples=60)
@given(instances, st.randoms(use_true_random=False))
def test_warm_start_survives_removals(params, pyrandom):
    n_devices, cap, raw = params
    cands = _clean(n_devices, raw)
    matcher = WarmStartMatcher(n_devices, cap)
    live = {}
    for c in cands:
        live[matcher.add(c)] = c
        if live and pyrandom.random() < 0.3:
            rid = pyrandom.choice(list(live))
            del live[rid]
            matcher.remove(rid)
        assert matcher.feasible == capacitated_feasible(
            list(live.values()), n_devices, cap)


def test_sampler_matches_per_trial_reference():
    """The vectorized sampler equals the per-trial Kuhn loop."""
    from repro.allocation.design_theoretic import \
        DesignTheoreticAllocation
    from repro.core.sampling import OptimalRetrievalSampler

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    kernels.clear_caches()
    sampler = OptimalRetrievalSampler(alloc, trials=300, seed=5)
    assert sampler.table(10) == {
        k: sampler.reference_probability(k) for k in range(1, 11)}


def test_retrieval_schedules_match_reference_matcher():
    """maxflow/combined schedules: Kuhn's assignment, always optimal."""
    from repro.graph.kuhn import capacitated_assignment
    from repro.retrieval.maxflow import maxflow_retrieval
    from repro.retrieval.policy import combined_retrieval

    rng = np.random.default_rng(13)
    n_dev = 9
    batches = [[[int(d) for d in rng.choice(n_dev, size=3,
                                            replace=False)]
                for _ in range(int(rng.integers(1, 8)))]
               for _ in range(40)]
    for b in batches:
        flow = maxflow_retrieval(b, n_dev)
        assert list(flow.assignment) == capacitated_assignment(
            b, n_dev, flow.accesses)
        assert not feasible(b, n_dev, flow.accesses - 1)
        assert combined_retrieval(b, n_dev).accesses == flow.accesses
