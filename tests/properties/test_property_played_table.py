"""Column identity of the played results.

Every player returns a :class:`repro.flash.played.PlayedTable`.  These
properties sweep the configurations its writers cover -- fast engine
vs DES, healthy / crash / stochastic fault schedules, reads only vs
mixed read/write, ``overflow`` delay vs reject, one-shot vs chunked
sessions -- and demand that every column, the flag word and the
fail-reason codes included, is identical (``np.array_equal``) to the
DES's, that the DES's rows survive a round trip through their
``IORequest`` row views (:meth:`PlayedTable.from_requests`), and that
the row views carry every ``IORequest`` field the other suites read.
The column readers of the module series are checked against the
per-row reference loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.driver import BatchTracePlayer, OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from repro.flash.played import PLAYED_DTYPE, FAIL_REASONS, PlayedTable
from repro.obs.series import (ModuleSeries, module_interval_series,
                              queue_depth)
from tests.properties.test_property_admitpath import (ALLOC, accesses_st,
                                                      mixed_schedules,
                                                      overflows, traces)
from tests.support.reference_module_series import (reference_merge,
                                                   reference_module_series)

T = 0.4


def assert_same_columns(got: PlayedTable, want: PlayedTable) -> None:
    assert len(got) == len(want)
    for name in PLAYED_DTYPE.names:
        assert np.array_equal(got.data[name], want.data[name]), name


def assert_rows_match_columns(played: PlayedTable) -> None:
    """Row views rebuild every field the suites read off ``p.io``."""
    for i, p in enumerate(played):
        io = p.io
        assert (p.index, p.interval) == (played.index[i],
                                         played.interval[i])
        assert (p.delayed, p.rejected, p.failed) == (
            played.delayed[i], played.rejected[i], played.failed[i])
        assert (io.arrival, io.bucket, io.is_read) == (
            played.arrival[i], played.bucket[i], played.is_read[i])
        assert (io.issued_at, io.enqueued_at, io.started_at,
                io.completed_at) == (played.issued[i], played.enqueued[i],
                                     played.started[i],
                                     played.completed[i])
        assert (io.device, io.retries, io.faulted) == (
            played.device[i], played.retries[i], played.faulted[i])
        assert io.fail_reason == FAIL_REASONS[played.reason[i]]
        assert io.response_ms == played.response_ms[i]
        assert io.total_ms == played.total_ms[i]
        assert type(io.issued_at) is float and type(io.device) is int


def play(rows, engine, overflow, accesses, faults, reads=None,
         chunks=1):
    arrivals = [t for t, _ in rows]
    buckets = [b for _, b in rows]
    player = OnlineTracePlayer(ALLOC, interval_ms=T, overflow=overflow,
                               accesses=accesses, params=MSR_SSD_PARAMS,
                               faults=faults, engine=engine)
    if chunks == 1:
        return player.play(arrivals, buckets, reads=reads)[1]
    session = player.session()
    size = max(1, len(rows) // chunks)
    for lo in range(0, len(rows), size):
        hi = min(lo + size, len(rows))
        session.feed(arrivals[lo:hi], buckets[lo:hi],
                     reads=None if reads is None else reads[lo:hi])
        if hi < len(rows):
            session.advance(arrivals[hi])
    return session.drain()[1]


@settings(max_examples=50, deadline=None)
@given(rows=traces, overflow=overflows, accesses=accesses_st,
       faults=st.none() | mixed_schedules(),
       write_mask=st.none() | st.lists(st.booleans(), min_size=80,
                                       max_size=80),
       chunks=st.sampled_from([1, 3]))
def test_fast_columns_equal_des(rows, overflow, accesses, faults,
                                write_mask, chunks):
    reads = None if write_mask is None else \
        [not w for w in write_mask[:len(rows)]]
    fast = play(rows, "fast", overflow, accesses, faults, reads, chunks)
    des = play(rows, "des", overflow, accesses, faults, reads)
    assert_same_columns(fast, des)
    assert_same_columns(PlayedTable.from_requests(list(des)), des)
    assert_rows_match_columns(fast)


@settings(max_examples=30, deadline=None)
@given(rows=traces, faults=st.none() | mixed_schedules())
def test_batch_fast_columns_equal_des(rows, faults):
    arrivals = [t for t, _ in rows]
    buckets = [b for _, b in rows]
    fast, des = (BatchTracePlayer(ALLOC, T, faults=faults,
                                  engine=engine).play(arrivals,
                                                      buckets)[1]
                 for engine in ("fast", "des"))
    assert_same_columns(fast, des)
    assert_same_columns(PlayedTable.from_requests(list(des)), des)


@settings(max_examples=50, deadline=None)
@given(rows=traces, overflow=overflows, faults=st.none() | mixed_schedules(),
       interval=st.sampled_from([0.1, 0.133, 1.0]),
       cuts=st.lists(st.floats(0, 1), max_size=3))
def test_module_series_matches_reference(rows, overflow, faults,
                                         interval, cuts):
    played = play(rows, "fast", overflow, 1, faults)
    want = reference_module_series(played, interval)
    got = module_interval_series(played, 9, interval)
    # same keys, same insertion order, same floats
    assert list(got.busy_ms.items()) == list(want[0].items())
    assert list(got.depth.items()) == list(want[1].items())
    # a fold over slices is the reference merge of per-slice dicts
    marks = sorted(int(c * len(played)) for c in cuts)
    folded = ModuleSeries(interval, 9)
    ref = ({}, {})
    for lo, hi in zip([0] + marks, marks + [len(played)]):
        folded.merge(module_interval_series(played[lo:hi], 9, interval))
        reference_merge(ref, reference_module_series(played[lo:hi],
                                                     interval))
    assert list(folded.busy_ms.items()) == list(ref[0].items())
    assert list(folded.depth.items()) == list(ref[1].items())
    # the router's direct depth is the series' depth summed over devices
    for k in range(int(played.completed.max() / interval) + 2
                   if len(played) else 1):
        assert queue_depth(played, k * interval) == sum(
            n for (_, kk), n in ref[1].items() if kk == k)
