"""Unit tests for bounded-degree assignment."""

import pytest

from repro.graph.matching import bounded_degree_assignment


class TestBoundedDegree:
    def test_empty_items(self):
        assert bounded_degree_assignment([], 3, 1) == []

    def test_zero_capacity_infeasible(self):
        assert bounded_degree_assignment([[0]], 1, 0) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            bounded_degree_assignment([[0]], 1, -1)

    def test_bin_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            bounded_degree_assignment([[5]], 2, 1)

    def test_empty_candidates_infeasible(self):
        assert bounded_degree_assignment([[0], []], 2, 1) is None

    def test_simple_feasible(self):
        a = bounded_degree_assignment([[0, 1], [0, 1]], 2, 1)
        assert sorted(a) == [0, 1]

    def test_respects_candidates(self):
        a = bounded_degree_assignment([[1], [0]], 2, 1)
        assert a == [1, 0]

    def test_infeasible_overload(self):
        # three items all restricted to bin 0, capacity 2
        assert bounded_degree_assignment([[0], [0], [0]], 1, 2) is None

    def test_duplicate_candidates_tolerated(self):
        a = bounded_degree_assignment([[0, 0, 1]], 2, 1)
        assert a[0] in (0, 1)

    def test_capacity_bound_respected(self):
        cands = [[0, 1, 2]] * 6
        a = bounded_degree_assignment(cands, 3, 2)
        assert a is not None
        for b in range(3):
            assert a.count(b) <= 2

    def test_needs_augmenting_path(self):
        # Greedy first-fit would fail; flow must reroute.
        cands = [[0], [0, 1], [1, 2]]
        a = bounded_degree_assignment(cands, 3, 1)
        assert a == [0, 1, 2]


    def test_per_bin_capacity(self):
        a = bounded_degree_assignment([[0, 1]] * 3, 2, [1, 2])
        assert sorted(a) == [0, 1, 1]
        assert bounded_degree_assignment([[0, 1]] * 4, 2, [1, 2]) is None

    def test_zero_capacity_bin_leaves_candidates(self):
        assert bounded_degree_assignment([[0, 1], [1]], 2, [3, 0]) is None
        assert bounded_degree_assignment([[0, 1]], 2, [0, 1]) == [1]

    def test_per_bin_capacity_validated(self):
        with pytest.raises(ValueError):
            bounded_degree_assignment([[0]], 2, [1])
        with pytest.raises(ValueError):
            bounded_degree_assignment([[0]], 2, [1, -1])
