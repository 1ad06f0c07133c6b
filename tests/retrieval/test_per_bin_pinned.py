"""Pinned per-bin-capacity schedules.

``maxflow_retrieval_with_carry`` (per-device backlog) and
``generalized_retrieval`` (heterogeneous service and busy times) are the
two callers of the per-bin form of
:func:`repro.graph.matching.bounded_degree_assignment`; no golden
snapshot or determinism probe reaches them.  These seeded cases pin
their exact assignments: ``per_bin_expected.json`` holds the outputs
recorded before the per-bin builders were merged into one.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.retrieval.generalized import generalized_retrieval
from repro.retrieval.maxflow import maxflow_retrieval_with_carry

EXPECTED = Path(__file__).with_name("per_bin_expected.json")


def _candidates(rng, n_devices, n_requests):
    return [[int(d) for d in rng.choice(
        n_devices, size=int(rng.integers(1, 4)), replace=False)]
        for _ in range(n_requests)]


def carry_cases():
    """``(candidates, n_devices, carry)`` with mostly non-zero carry."""
    rng = np.random.default_rng(2012)
    cases = []
    for _ in range(40):
        n = int(rng.choice([5, 9, 13]))
        cands = _candidates(rng, n, int(rng.integers(1, 16)))
        carry = [float(x) for x in rng.choice(
            [0.0, 0.0, 0.4, 1.0, 1.5, 2.7, 4.0], size=n)]
        cases.append((cands, n, carry))
    return cases


def generalized_cases():
    """``(candidates, n_devices, service_ms, busy_ms)``."""
    rng = np.random.default_rng(2013)
    cases = []
    for _ in range(30):
        n = int(rng.integers(3, 8))
        cands = _candidates(rng, n, int(rng.integers(1, 12)))
        service = [float(x) for x in rng.choice(
            [0.5, 1.0, 1.25, 2.0, 3.0], size=n)]
        busy = [float(x) for x in rng.choice(
            [0.0, 0.0, 0.5, 1.0, 2.5], size=n)]
        cases.append((cands, n, service, busy))
    return cases


def observed():
    """Every case's output, in the layout of ``per_bin_expected.json``."""
    carry = [list(maxflow_retrieval_with_carry(c, n, k).assignment)
             for c, n, k in carry_cases()]
    general = []
    for c, n, service, busy in generalized_cases():
        s = generalized_retrieval(c, n, service, busy)
        general.append([list(s.assignment), s.makespan,
                        list(s.completion)])
    return {"carry": carry, "generalized": general}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.fixture(scope="module")
def got():
    return observed()


@pytest.mark.parametrize("kind", ["carry", "generalized"])
def test_per_bin_schedules_match_pinned(kind, expected, got):
    assert len(got[kind]) == len(expected[kind])
    for i, (have, want) in enumerate(zip(got[kind], expected[kind])):
        assert have == want, f"{kind} case {i}"
