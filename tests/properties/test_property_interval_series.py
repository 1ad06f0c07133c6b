"""Identity suite: the columnar ``IntervalSeries`` against the
per-object reference fold in ``tests/support/reference_series.py``.

Random write programs over three series -- scalar ``record``, bulk
``record_array`` and ``merge`` (so nested roll-ups and merges into
non-empty series occur), with reads interleaved -- must leave both
implementations byte-equal on every read: ``state()``,
``overall().state()``, ``stats(i).state()`` (a missing interval
included) and ``series(attr)``.  Comparisons are on ``repr`` so a
``-0.0`` or a numpy scalar where the reference has a Python float
fails too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.metrics import IntervalSeries
from tests.support import reference_series
from tests.support.reference_series import RefIntervalSeries

N_SERIES = 3
#: gaps between intervals, one far past the rest
INTERVALS = st.sampled_from([0, 1, 2, 3, 7, 40, 10 ** 6])
#: repeated constants make equal shifts (zero re-shift deltas) and
#: constant-latency intervals common; the float range makes negative
#: and positive deltas of every size
RESPONSES = st.one_of(
    st.sampled_from([0.0, 0.132507, 0.25, 1.0, 3.5]),
    st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False))
DELAYS = st.one_of(st.just(0.0),
                   st.floats(0.0, 10.0, allow_nan=False,
                             allow_infinity=False))
ROWS = st.lists(st.tuples(INTERVALS, RESPONSES, DELAYS), max_size=40)
SERIES = st.integers(0, N_SERIES - 1)

OPS = st.one_of(
    st.tuples(st.just("record"), SERIES, INTERVALS, RESPONSES, DELAYS),
    st.tuples(st.just("record_array"), SERIES, ROWS, st.booleans()),
    st.tuples(st.just("merge"), SERIES, SERIES),
    st.tuples(st.just("read"), SERIES, INTERVALS),
)

ATTRS = ("avg", "std", "max", "min", "avg_delay", "pct_delayed",
         "n_total", "n_delayed")


def assert_identical(new: IntervalSeries, ref: RefIntervalSeries) -> None:
    assert new.intervals() == ref.intervals()
    assert repr(new.state()) == repr(ref.state())
    assert repr(new.overall().state()) == repr(ref.overall().state())
    for i in ref.intervals() + [-1]:
        assert repr(new.stats(i).state()) == repr(ref.stats(i).state())
    for attr in ATTRS:
        assert repr(new.series(attr)) == repr(ref.series(attr))


def run_program(ops):
    news = [IntervalSeries() for _ in range(N_SERIES)]
    refs = [RefIntervalSeries() for _ in range(N_SERIES)]
    for op in ops:
        kind, s = op[0], op[1]
        if kind == "record":
            _, _, interval, response, delay = op
            news[s].record(interval, response, delay)
            refs[s].record(interval, response, delay)
        elif kind == "record_array":
            _, _, rows, with_delays = op
            intervals = [r[0] for r in rows]
            responses = [r[1] for r in rows]
            delays = [r[2] for r in rows] if with_delays else None
            news[s].record_array(intervals, responses, delays)
            refs[s].record_array(intervals, responses, delays)
        elif kind == "merge":
            other = op[2]
            if other != s:
                news[s].merge(news[other])
                refs[s].merge(refs[other])
        else:
            interval = op[2]
            assert repr(news[s].stats(interval).state()) == \
                repr(refs[s].stats(interval).state())
            assert_identical(news[s], refs[s])
    for new, ref in zip(news, refs):
        assert_identical(new, ref)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(OPS, max_size=25),
       threshold=st.sampled_from([1, 3, 32768]))
def test_columnar_series_equals_reference_fold(ops, threshold):
    """Every read of every series is byte-equal to the reference.

    ``threshold`` moves the reference's pending-buffer fold point, so
    intervals pass ``FOLD_THRESHOLD`` (and fold in several batches)
    inside small programs.
    """
    saved = reference_series.FOLD_THRESHOLD
    reference_series.FOLD_THRESHOLD = threshold
    try:
        run_program(ops)
    finally:
        reference_series.FOLD_THRESHOLD = saved


@settings(max_examples=40, deadline=None)
@given(shards=st.lists(ROWS, min_size=1, max_size=4),
       depth=st.integers(1, 3))
def test_nested_roll_up_equals_reference(shards, depth):
    """Shards rolled up through ``depth`` levels of intermediate
    series (a cluster of clusters) fold like the reference."""
    news = []
    refs = []
    for rows in shards:
        new, ref = IntervalSeries(), RefIntervalSeries()
        for interval, response, delay in rows:
            new.record(interval, response, delay)
            ref.record(interval, response, delay)
        news.append(new)
        refs.append(ref)
    for _ in range(depth):
        rolled_new, rolled_ref = IntervalSeries(), RefIntervalSeries()
        for new, ref in zip(news, refs):
            rolled_new.merge(new)
            rolled_ref.merge(ref)
        news = [rolled_new] + news[1:]
        refs = [rolled_ref] + refs[1:]
    assert_identical(news[0], refs[0])
