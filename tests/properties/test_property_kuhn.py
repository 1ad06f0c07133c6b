"""Property-based tests for the capacitated matcher."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.kuhn import capacitated_assignment
from repro.graph.matching import bounded_degree_assignment

instances = st.tuples(
    st.integers(2, 7),                       # n_bins
    st.integers(1, 3),                       # capacity
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4),
             min_size=0, max_size=15),       # raw candidates
)


def _clean(n_bins, cands):
    return [[b % n_bins for b in c] for c in cands]


@settings(max_examples=150)
@given(instances)
def test_agrees_with_flow_solver(params):
    n_bins, cap, raw = params
    cands = _clean(n_bins, raw)
    kuhn = capacitated_assignment(cands, n_bins, cap)
    dinic = bounded_degree_assignment(cands, n_bins, cap)
    assert (kuhn is None) == (dinic is None)


@settings(max_examples=150)
@given(instances)
def test_assignment_validity_and_load(params):
    n_bins, cap, raw = params
    cands = _clean(n_bins, raw)
    out = capacitated_assignment(cands, n_bins, cap)
    if out is None:
        return
    assert len(out) == len(cands)
    for got, allowed in zip(out, cands):
        assert got in allowed
    for b in range(n_bins):
        assert out.count(b) <= cap


@settings(max_examples=100)
@given(instances)
def test_feasibility_monotone_in_capacity(params):
    n_bins, cap, raw = params
    cands = _clean(n_bins, raw)
    if capacitated_assignment(cands, n_bins, cap) is not None:
        assert capacitated_assignment(cands, n_bins, cap + 1) \
            is not None


per_bin_instances = st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, 3), min_size=n, max_size=n),  # caps
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4),
             min_size=0, max_size=15),                     # raw
))


@settings(max_examples=150)
@given(per_bin_instances)
def test_per_bin_capacity_agrees_with_expanded_kuhn(params):
    """Bin ``d`` with capacity ``c_d`` is ``c_d`` unit bins to Kuhn."""
    n_bins, caps, raw = params
    cands = _clean(n_bins, raw)
    first = [sum(caps[:d]) for d in range(n_bins)]
    expanded = [[first[b] + j for b in c for j in range(caps[b])]
                for c in cands]
    want = capacitated_assignment(expanded, sum(caps), 1) is not None
    out = bounded_degree_assignment(cands, n_bins, caps)
    assert (out is not None) == want
    if out is None:
        return
    for got, allowed in zip(out, cands):
        assert got in allowed
    for b in range(n_bins):
        assert out.count(b) <= caps[b]
