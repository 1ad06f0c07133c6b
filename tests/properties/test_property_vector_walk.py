"""Adversarial identity of the vector session's two per-request paths.

The admission kernel resolves congested intervals on plain ints over a
delayed carry kept as a ring with a stack ahead of it, and the plan
walker places singleton reads in its loop and writes their rows by
column, a slice of the plan at a time.  These properties aim at the
seams of both and compare every played column against the scalar
reference loop (a session demoted before its first feed):

* alternating device collisions: every other singleton read finds its
  first replica busy and takes ``_pick`` / ``_queue_read``;
* fault-mask change points inside a slice, with the slice length
  forced down to a few entries so a plan spans many slices (a slice
  ends at the first batch start past its length, so batches of several
  requests fall on its edges);
* ``overflow`` delay and reject;
* write-heavy overload chains carried across chunked ``advance`` cuts,
  with writes at the head of the carry, so the two-phase greedy scan
  reads into the carry and denied entries ahead of admitted ones wait
  on the stack across takes.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash import admitpath, driver
from repro.flash.driver import OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from tests.properties.test_property_admitpath import (ALLOC, accesses_st,
                                                      mixed_schedules,
                                                      overflows, schedules)
from tests.properties.test_property_played_table import assert_same_columns
from tests.support.builders import reference_session

READ_MS = MSR_SSD_PARAMS.read_ms
slice_lengths = st.integers(3, 7)


def run(trace, reads=None, *, interval_ms=0.4, overflow="delay",
        accesses=1, faults=None, cuts=(), slice_len=None,
        reference=False):
    """Play ``trace`` (``(arrival, bucket)`` rows) on one session, fed
    in chunks split at the row indices ``cuts`` and advanced to each
    next chunk's first arrival; returns ``(session, played)``."""
    arrivals = [t for t, _ in trace]
    buckets = [b for _, b in trace]
    player = OnlineTracePlayer(ALLOC, interval_ms=interval_ms,
                               overflow=overflow, accesses=accesses,
                               params=MSR_SSD_PARAMS, faults=faults)
    session = reference_session(player) if reference else player.session()
    bounds = [0, *cuts, len(trace)]
    with mock.patch.object(driver, "_SLICE",
                           slice_len or driver._SLICE):
        for lo, hi in zip(bounds, bounds[1:]):
            session.feed(arrivals[lo:hi], buckets[lo:hi],
                         reads=None if reads is None else reads[lo:hi])
            if hi < len(trace):
                session.advance(arrivals[hi])
        _, played = session.drain()
    return session, played


def assert_matches_reference(trace, reads=None, **kw):
    session, played = run(trace, reads, **kw)
    kw.pop("cuts", None)
    kw.pop("slice_len", None)
    _, ref = run(trace, reads, reference=True, **kw)
    assert_same_columns(played, ref)
    return session


@st.composite
def collision_traces(draw):
    """Pairs of reads of one bucket, the second within one service
    time of the first, the pairs spaced out so the first of each finds
    its first replica idle."""
    rows, t = [], 0.0
    for _ in range(draw(st.integers(2, 40))):
        bucket = draw(st.integers(0, ALLOC.n_buckets - 1))
        gap = draw(st.sampled_from([0.01, 0.05, 0.1])) * READ_MS
        rows += [(t, bucket), (t + gap, bucket)]
        t += draw(st.sampled_from([1.2, 2.0, 3.5])) * READ_MS
    return rows


@settings(max_examples=60, deadline=None)
@given(collision_traces(), accesses_st, overflows, slice_lengths,
       st.sampled_from([0.133, 0.4, 1.0]))
def test_alternating_collisions(trace, accesses, overflow, slice_len,
                                interval_ms):
    assert_matches_reference(trace, interval_ms=interval_ms,
                             overflow=overflow, accesses=accesses,
                             slice_len=slice_len)


@settings(max_examples=60, deadline=None)
@given(collision_traces(), schedules(), overflows, slice_lengths)
def test_mask_changes_inside_slices(trace, faults, overflow, slice_len):
    # crash and down windows over the trace's span cut the plan's
    # mask segments wherever they fall, inside a slice or on its edge
    assert_matches_reference(trace, faults=faults, overflow=overflow,
                             slice_len=slice_len)


#: arrivals on a 0.01 ms grid, packed so intervals congest: batches of
#: simultaneous requests and spill boundaries land on slice edges
dense = st.lists(st.tuples(st.integers(0, 150),
                           st.integers(0, ALLOC.n_buckets - 1)),
                 min_size=10, max_size=90,
                 ).map(lambda rows: sorted((q * 0.01, b) for q, b in rows))


@settings(max_examples=80, deadline=None)
@given(dense, st.data(), overflows, accesses_st, mixed_schedules(),
       slice_lengths)
def test_short_slices_on_mixed_traffic(trace, data, overflow, accesses,
                                       faults, slice_len):
    reads = data.draw(st.lists(st.booleans(), min_size=len(trace),
                               max_size=len(trace)))
    assert_matches_reference(trace, reads, overflow=overflow,
                             accesses=accesses, faults=faults,
                             slice_len=slice_len)


@st.composite
def overload_chains(draw):
    """Write-heavy traffic far above the budget on a 0.1 ms grid
    against a 0.4 ms interval (boundary-instant arrivals meet the
    carry), cut into chunks at random rows."""
    n = draw(st.integers(20, 120))
    quanta = sorted(draw(st.lists(st.integers(0, n // 3), min_size=n,
                                  max_size=n)))
    trace = [(q * 0.1, draw(st.integers(0, ALLOC.n_buckets - 1)))
             for q in quanta]
    share = draw(st.sampled_from([0.5, 0.75, 0.9]))
    reads = [draw(st.floats(0, 1)) >= share for _ in range(n)]
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=5))))
    return trace, reads, cuts


#: forty writes, then five reads, at one instant, and two later reads:
#: the first interval admits a write and two reads, the rest spills, so
#: each next boundary's carry opens with a denied write and its greedy
#: scan runs past thirty-odd writes (beyond the first look-ahead
#: window) to the reads; cut at the later reads, or not at all
_LONG_WRITE_HEAD = ([(0.0, b % 36) for b in range(45)]
                    + [(0.45, 1), (0.85, 2)],
                    [False] * 40 + [True] * 7)


@settings(max_examples=80, deadline=None)
@example(chains=(*_LONG_WRITE_HEAD, []), overflow="delay", slice_len=3)
@example(chains=(*_LONG_WRITE_HEAD, [45, 46]), overflow="delay",
         slice_len=5)
@given(overload_chains(), overflows, slice_lengths)
def test_write_heavy_overload_across_cuts(chains, overflow, slice_len):
    trace, reads, cuts = chains
    session = assert_matches_reference(trace, reads, overflow=overflow,
                                       cuts=cuts, slice_len=slice_len)
    assert session.admission_kernel == "vector"


def test_denied_write_ahead_of_admitted_reads_waits_on_the_stack():
    """Twelve requests at t = 0 against S = 5: five reads admit and the
    carry into interval 1 is [R R R W R R R].  There three reads admit,
    the write is denied and two reads fill the room; the write and the
    last read carry on, the write first, so the write waits on the
    stack until the take ends and folds it into the ring."""
    costs = [1] * 8 + [3, 1, 1, 1]
    win = admitpath.VectorAdmissionWindow(0.4, 5, "delay")
    win.feed(np.zeros(12), np.arange(12, dtype=np.int64), np.array(costs))
    plan = win.take(0.45)
    assert plan.order.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 9, 10]
    assert win.export_state()["carry"].tolist() == [8, 11]
    rows = [(0.0, b) for b in range(12)] + [(0.45, 20), (0.9, 21)]
    reads = [c == 1 for c in costs] + [True, False]
    session = assert_matches_reference(rows, reads, cuts=[12])
    assert session.admission_kernel == "vector"
