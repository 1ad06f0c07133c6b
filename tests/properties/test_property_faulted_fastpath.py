"""Property-based byte-identity of faulted fast playback vs the DES.

The faulted fast path (:class:`repro.flash.faulted.FaultedReplay`)
claims to reproduce the event loop's arithmetic
operation-for-operation under *any* materialized fault schedule.
These properties sweep randomized schedules -- crashes, down windows,
slowdowns, read-error windows, in any combination (N <= 64 events) --
and randomized traces, and assert the full per-request record
(timestamps, devices, retries, fault flags, failure reasons) is
byte-identical between engines, plus the segment-boundary edge cases
a sweep is unlikely to hit by chance: faults at t = 0, back-to-back
windows, and windows entirely past the trace end.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultSchedule
from repro.flash.driver import BatchTracePlayer, OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from tests.support.builders import design_alloc

ALLOC = design_alloc()

traces = st.lists(
    st.tuples(st.floats(0, 20, allow_nan=False),
              st.integers(0, ALLOC.n_buckets - 1)),
    min_size=1, max_size=40,
).map(lambda rows: sorted(rows))

window_starts = st.floats(0, 20, allow_nan=False)
durations = st.floats(0.05, 8, allow_nan=False)
modules = st.integers(0, 8)


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(["crash", "down", "slow",
                                 "read_error"]))
    module = draw(modules)
    start = draw(window_starts)
    if kind == "crash":
        return FaultEvent("crash", module, start)
    end = start + draw(durations)
    if kind == "slow":
        return FaultEvent("slow", module, start, end,
                          factor=draw(st.floats(1.1, 6,
                                                allow_nan=False)))
    if kind == "read_error":
        return FaultEvent("read_error", module, start, end,
                          prob=draw(st.floats(0.05, 1.0,
                                              allow_nan=False)))
    return FaultEvent("down", module, start, end)


schedules = st.lists(fault_events(), min_size=0, max_size=64).map(
    lambda evs: FaultSchedule(evs, n_modules=9, seed=5))


def _fingerprint(played):
    return json.dumps([[p.io.issued_at, p.io.enqueued_at,
                        p.io.started_at, p.io.completed_at,
                        p.io.device, p.io.retries,
                        int(p.io.faulted), int(p.io.failed),
                        p.io.fail_reason, p.delayed, p.rejected]
                       for p in played])


def _both_engines(player_cls, schedule, rows, **kwargs):
    arrivals = [t for t, _ in rows]
    buckets = [b for _, b in rows]
    outs = []
    for engine in ("fast", "des"):
        player = player_cls(ALLOC, interval_ms=0.4,
                            params=MSR_SSD_PARAMS, engine=engine,
                            faults=schedule, **kwargs)
        assert player.engine == engine
        outs.append(_fingerprint(player.play(arrivals, buckets)[1]))
    return outs


@settings(max_examples=40, deadline=None)
@given(schedule=schedules, rows=traces)
def test_online_faulted_fast_path_matches_des(schedule, rows):
    fast, des = _both_engines(OnlineTracePlayer, schedule, rows)
    assert fast == des


@settings(max_examples=25, deadline=None)
@given(schedule=schedules, rows=traces)
def test_batch_faulted_fast_path_matches_des(schedule, rows):
    fast, des = _both_engines(BatchTracePlayer, schedule, rows)
    assert fast == des


@settings(max_examples=20, deadline=None)
@given(schedule=schedules, rows=traces,
       write_mask=st.lists(st.booleans(), min_size=40, max_size=40))
def test_online_faulted_writes_match_des(schedule, rows, write_mask):
    arrivals = [t for t, _ in rows]
    buckets = [b for _, b in rows]
    reads = [not w for w, _ in zip(write_mask, rows)]
    outs = []
    for engine in ("fast", "des"):
        player = OnlineTracePlayer(ALLOC, interval_ms=0.4,
                                   params=MSR_SSD_PARAMS,
                                   engine=engine, faults=schedule)
        outs.append(_fingerprint(
            player.play(arrivals, buckets, reads)[1]))
    assert outs[0] == outs[1]


class TestSegmentBoundaryEdgeCases:
    """The boundary alignments a random sweep is unlikely to hit."""

    ROWS = [(i * 0.3, i % ALLOC.n_buckets) for i in range(30)]

    def _identical(self, schedule):
        fast, des = _both_engines(OnlineTracePlayer, schedule,
                                  self.ROWS)
        assert fast == des

    def test_fault_at_t_zero(self):
        self._identical(FaultSchedule([
            FaultEvent("down", 0, 0.0, 2.0),
            FaultEvent("crash", 1, 0.0),
            FaultEvent("slow", 2, 0.0, 3.0, factor=4.0),
            FaultEvent("read_error", 3, 0.0, 5.0, prob=0.8),
        ], n_modules=9))

    def test_back_to_back_windows(self):
        # window end == next window start (end is exclusive)
        self._identical(FaultSchedule([
            FaultEvent("down", 0, 1.0, 2.0),
            FaultEvent("down", 0, 2.0, 3.0),
            FaultEvent("slow", 4, 0.5, 1.5, factor=2.0),
            FaultEvent("slow", 4, 1.5, 2.5, factor=3.0),
            FaultEvent("read_error", 7, 2.0, 2.6, prob=1.0),
            FaultEvent("read_error", 7, 2.6, 4.0, prob=0.3),
        ], n_modules=9))

    def test_overlapping_windows_stack(self):
        self._identical(FaultSchedule([
            FaultEvent("slow", 5, 0.0, 6.0, factor=2.0),
            FaultEvent("slow", 5, 3.0, 9.0, factor=1.5),
            FaultEvent("down", 6, 1.0, 4.0),
            FaultEvent("down", 6, 3.0, 5.0),
        ], n_modules=9))

    def test_down_window_running_into_crash(self):
        self._identical(FaultSchedule([
            FaultEvent("down", 0, 1.0, 5.0),
            FaultEvent("crash", 0, 3.0),
        ], n_modules=9))

    def test_fault_past_trace_end(self):
        # trace ends at 8.7 ms; faults fire long after
        self._identical(FaultSchedule([
            FaultEvent("crash", 0, 500.0),
            FaultEvent("down", 1, 400.0, 600.0),
            FaultEvent("slow", 2, 300.0, 301.0, factor=9.0),
            FaultEvent("read_error", 3, 200.0, 201.0, prob=1.0),
        ], n_modules=9))

    def test_whole_array_masked(self):
        # every module down at once: everything fails "unavailable"
        self._identical(FaultSchedule(
            [FaultEvent("down", m, 0.0, 50.0) for m in range(9)],
            n_modules=9))
