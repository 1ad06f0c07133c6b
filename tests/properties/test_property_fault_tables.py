"""The fault change-point tables answer exactly as the linear scans.

:class:`repro.faults.FaultSchedule` answers ``available_from``,
``slowdown`` and ``error_prob`` from per-module change-point tables
with one bisection; ``tests/support/reference_faults.py`` keeps the
per-event scans they replaced.  These properties compare the two on
random schedules built to hit the hard cases: overlapping slow windows
whose factors round differently in another order, down windows that
chain into each other and into a crash, queries exactly at a window's
``start`` or ``end`` and before the first event, and modules with no
events at all.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultSchedule
from tests.support import reference_faults as ref

#: module 3 never receives an event
N_MODULES = 4

#: factors whose products round differently when reordered
#: (1.1 * 3.3 * 1.7 != 1.7 * 3.3 * 1.1 in binary floating point)
FACTORS = [1.1, 3.3, 0.7, 1.7, 2.0, 0.3]

#: a coarse time grid so windows share boundaries and overlap often
grid = st.integers(0, 40).map(lambda q: q * 0.25)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(["crash", "down", "down", "slow", "slow",
                                 "read_error"]))
    module = draw(st.integers(0, N_MODULES - 2))
    start = draw(grid)
    if kind == "crash":
        return FaultEvent("crash", module, start)
    length = draw(st.integers(1, 12)) * 0.25
    end = math.inf if draw(st.integers(0, 15)) == 0 else start + length
    if kind == "slow":
        return FaultEvent("slow", module, start, end,
                          factor=draw(st.sampled_from(FACTORS)))
    if kind == "read_error":
        return FaultEvent("read_error", module, start, end,
                          prob=draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])))
    return FaultEvent("down", module, start, end)


def query_times(schedule, extra):
    pts = {-1.0, -0.0, 0.0, 100.0, math.inf, *extra}
    for e in schedule.events:
        for p in (e.start, e.end):
            if math.isfinite(p):
                pts.update((p, math.nextafter(p, -math.inf),
                            math.nextafter(p, math.inf)))
    return sorted(pts)


def assert_tables_match_scans(schedule, extra=()):
    for m in range(N_MODULES):
        for t in query_times(schedule, extra):
            assert schedule.slowdown(m, t) == ref.slowdown(schedule, m, t)
            assert schedule.error_prob(m, t) == \
                ref.error_prob(schedule, m, t)
            assert schedule.available_from(m, t) == \
                ref.available_from(schedule, m, t)


@settings(max_examples=150, deadline=None)
@given(st.lists(events(), max_size=25),
       st.lists(st.floats(0, 12, allow_nan=False), max_size=5))
@example([FaultEvent("slow", 0, 0.0, 2.0, factor=1.1),
          FaultEvent("slow", 0, 0.5, 2.0, factor=3.3),
          FaultEvent("slow", 0, 1.0, 2.0, factor=1.7)], [])
@example([FaultEvent("down", 1, 0.0, 1.0),
          FaultEvent("down", 1, 0.5, 2.0),
          FaultEvent("down", 1, 2.0, 3.0),
          FaultEvent("crash", 1, 3.0)], [])
def test_tables_match_linear_scans(evs, extra):
    assert_tables_match_scans(FaultSchedule(evs, seed=1), extra)


def test_overlapping_slow_windows_keep_event_order():
    s = FaultSchedule([FaultEvent("slow", 0, 0.0, 2.0, factor=1.1),
                       FaultEvent("slow", 0, 0.5, 2.0, factor=3.3),
                       FaultEvent("slow", 0, 1.0, 2.0, factor=1.7)])
    assert s.slowdown(0, 1.5) == (1.1 * 3.3) * 1.7
    assert s.slowdown(0, 1.5) != (1.7 * 3.3) * 1.1  # order is visible
    assert s.slowdown(0, 2.0) == 1.0  # end is exclusive


def test_down_chain_runs_into_crash_and_into_down():
    s = FaultSchedule([FaultEvent("down", 1, 0.0, 1.0),
                       FaultEvent("down", 1, 0.5, 2.0),
                       FaultEvent("down", 1, 2.0, 3.0),
                       FaultEvent("down", 2, 0.0, 1.0),
                       FaultEvent("crash", 2, 1.0)])
    assert s.available_from(1, 0.0) == 3.0   # 0 -> 2 -> 3
    assert s.available_from(1, 3.0) == 3.0   # end is exclusive
    assert s.available_from(1, -1.0) == -1.0  # before the first event
    assert s.available_from(2, 0.25) == math.inf
    assert s.available_from(3, 7.0) == 7.0   # no events at all
    assert_tables_match_scans(s)
