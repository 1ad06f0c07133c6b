"""Property-based byte-identity of statistical admission on the kernel.

Under ε > 0 the vector session plans each take on a copy of the
:class:`~repro.core.admission.StatisticalAdmission` controller, with
the violation count ``V`` it starts with, and the plan walker keeps the
controller itself in step: it folds the histogram forward, answers
``offer_conflict`` on it, re-checks admissions above ``S`` once ``V``
has moved and has the take planned again when one flips.  These
properties compare the whole per-request record against the scalar
reference loop (a session demoted before its first feed) over random
``P_k`` tables (``1 - P_k`` need not be monotone), ε changed between
``advance`` cuts, random chunkings, reads and writes, delay and reject
overflow and fault schedules; one conflict-dense pileup provably takes
the re-plan branch.  The bulk histogram fold is checked against the
repeated ``start_interval`` it stands for.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import StatisticalAdmission
from repro.flash.driver import OnlineStreamSession, OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from repro.obs.metrics import sequential_sum
from tests.properties.test_property_admitpath import (
    ALLOC, chunking, dense_traces, mixed_schedules, overflows,
    played_key, write_masks)
from tests.support.builders import reference_session

#: the design's S at M = 1
LIMIT = 5

#: P_k for the sizes above S; arbitrary draws make 1 - P_k non-monotone
p_tables = st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40).map(
    lambda ps: {LIMIT + 1 + i: p for i, p in enumerate(ps)})
epsilons = st.floats(0.01, 0.99)


def play(trace, reads, interval_ms, overflow, faults, table, epsilons,
         n_chunks, reference=False):
    """Feed ``trace`` in ``n_chunks`` chunks, advancing to each next
    chunk's first arrival and then setting ε to the next of
    ``epsilons``; returns the session and its played rows."""
    arrivals = [t for t, _ in trace]
    buckets = [b for _, b in trace]
    player = OnlineTracePlayer(ALLOC, interval_ms=interval_ms,
                               epsilon=epsilons[0], probabilities=table,
                               overflow=overflow, params=MSR_SSD_PARAMS,
                               faults=faults)
    session = reference_session(player) if reference \
        else player.session()
    for step, (lo, hi) in enumerate(chunking(len(trace), n_chunks)):
        session.feed(arrivals[lo:hi], buckets[lo:hi],
                     reads=None if reads is None else reads[lo:hi])
        if hi < len(trace):
            session.advance(arrivals[hi])
            session.admission.epsilon = epsilons[(step + 1)
                                                 % len(epsilons)]
    return session, session.drain()[1]


@settings(max_examples=60, deadline=None)
@given(dense_traces, st.sampled_from([0.133, 0.4]), overflows,
       st.one_of(st.none(), mixed_schedules()), p_tables,
       st.lists(epsilons, min_size=1, max_size=4), st.integers(1, 5),
       st.one_of(st.none(), write_masks))
def test_statistical_vector_matches_reference(trace, interval_ms,
                                              overflow, faults, table,
                                              eps, n_chunks, mask):
    reads = None if mask is None else mask[:len(trace)]
    args = (trace, reads, interval_ms, overflow, faults, table, eps,
            n_chunks)
    _, vec = play(*args)
    _, ref = play(*args, reference=True)
    assert played_key(vec) == played_key(ref)


def _pileup(per_interval, n_intervals=8, interval_ms=0.4):
    """Every interval holds ``per_interval`` arrivals 1 us apart."""
    return [(k * interval_ms + j * 0.001, (k * per_interval + j) % 36)
            for k in range(n_intervals) for j in range(per_interval)]


@pytest.mark.parametrize("overflow, writes, n_chunks", [
    ("delay", False, 1), ("reject", False, 1), ("delay", True, 3),
    ("reject", True, 2)])
def test_conflict_dense_pileup_replans(overflow, writes, n_chunks):
    # A few intervals of history make V / N_t large, and ε sits just
    # above the sampled mass the offers above S see: each admitted
    # conflict pushes Q past ε for an admission the plan made, so the
    # walk stops there and the take is planned again.
    trace = _pileup(30)
    reads = [i % 5 != 2 for i in range(len(trace))] if writes else None
    table = {k: 0.995 ** (k - LIMIT) * (0.95 if k % 3 == 0 else 1.0)
             for k in range(LIMIT + 1, LIMIT + 60)}
    args = (trace, reads, 0.4, overflow, None, table, [0.6], n_chunks)
    session, vec = play(*args)
    assert session.admission_kernel == "vector"
    assert session.replans > 0
    _, ref = play(*args, reference=True)
    assert played_key(vec) == played_key(ref)


@pytest.mark.parametrize("offset, n_chunks", [
    (3e-13, 1), (-3e-13, 1), (3e-13, 3)])
def test_replan_that_spills_near_an_arrival_catches_up(offset, n_chunks,
                                                       monkeypatch):
    # One arrival sits 3e-13 ms off the boundary 8 T: the first plan
    # spills nowhere near it, but after a flip the re-plan delays
    # requests into that boundary, where the scalar loop would batch
    # the two instants together.  The session hands the take to the
    # scalar loop at the flipped batch, replaying the admissions
    # before it, and must still equal the reference.
    trace = sorted(_pileup(25) + [(8 * 0.4 + offset, 7)])
    table = {k: 0.995 ** (k - LIMIT) * (0.95 if k % 3 == 0 else 1.0)
             for k in range(LIMIT + 1, LIMIT + 60)}
    args = (trace, None, 0.4, "delay", None, table, [0.6], n_chunks)
    caught = []
    catch_up = OnlineStreamSession._catch_up

    def counting(session, *a):
        caught.append(a[1])
        return catch_up(session, *a)

    monkeypatch.setattr(OnlineStreamSession, "_catch_up", counting)
    session, vec = play(*args)
    assert caught and session.replans > 0
    assert session.admission_kernel == "scalar"
    assert session.admission_fallback_reason == "time_resolution"
    _, ref = play(*args, reference=True)
    assert played_key(vec) == played_key(ref)


def _counts_order(adm):
    return list(adm.size_counts.items())


#: closed intervals as (size, repeat) groups, zeros and repeats common
groups = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 6)),
                  min_size=0, max_size=30)


@settings(max_examples=150, deadline=None)
@given(groups, groups, p_tables, st.integers(0, 3))
def test_bulk_fold_equals_repeated_start_interval(first, then, table,
                                                  extra):
    # Two folds in a row, the first from a fresh controller (so the
    # first interval's rule applies): the same slot order, counts,
    # totals and Q floats as one start_interval per closed interval.
    bulk = StatisticalAdmission(table, 0.5, replication=3)
    loop = StatisticalAdmission(table, 0.5, replication=3)
    for batch in (first, then):
        bulk.close_intervals([s for s, _ in batch], [r for _, r in batch])
        for size, reps in batch:
            for _ in range(reps):
                loop.resume(size)
                loop.start_interval()
        assert _counts_order(bulk) == _counts_order(loop)
        assert bulk._hist_total == loop._hist_total
        assert bulk._total_intervals == loop._total_intervals
        assert bulk.interval_count == loop.interval_count == 0
        for size in range(0, LIMIT + 12):
            assert bulk.violation_probability(size, extra) == \
                loop.violation_probability(size, extra)


def _reference_q(adm, size, extra):
    """``Q`` as one prefix-dot of the histogram, nothing reused."""
    n = adm._n_slots
    omp = adm._hist_omp[:n]
    total = adm._hist_total + 1
    slot = adm._slot.get(size)
    if slot is None:
        q = sequential_sum(omp * (adm._hist_counts[:n] / total)) \
            + (1.0 - adm.p_k(size)) * (1 / total)
    else:
        counts = adm._hist_counts[:n].copy()
        counts[slot] += 1
        q = sequential_sum(omp * (counts / total))
    q += (adm.violations + extra) / total
    return min(1.0, q)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=60), p_tables,
       st.lists(st.integers(0, 45), min_size=1, max_size=12),
       st.integers(0, 5))
def test_reused_q_terms_equal_the_prefix_dot(sizes, table, queries,
                                             extra):
    # violation_probability keeps the histogram's terms and running
    # sums between calls; every query, repeated or not, must be the
    # float the whole prefix-dot gives
    adm = StatisticalAdmission(table, 0.5, replication=3)
    for size in sizes:
        adm.resume(size)
        adm.start_interval()
        for q in queries:
            assert adm.violation_probability(q, extra) == \
                _reference_q(adm, q, extra)


def test_resume_takes_counts_above_s():
    adm = StatisticalAdmission({}, 0.5, replication=3)
    adm.resume(3 * LIMIT)
    assert adm.interval_count == 3 * LIMIT
    with pytest.raises(ValueError):
        adm.resume(-1)


def test_copy_is_independent_and_adopt_shares():
    adm = StatisticalAdmission({6: 0.5}, 0.5, replication=3)
    adm.close_intervals([0, 6], [3, 2])
    twin = adm.copy()
    twin.close_intervals([7], [1])
    assert adm.size_counts == {0: 2, 6: 2}
    assert twin.size_counts == {0: 2, 6: 2, 7: 1}
    adm.adopt(twin)
    assert adm.size_counts == twin.size_counts
    assert np.shares_memory(adm._hist_counts, twin._hist_counts)
