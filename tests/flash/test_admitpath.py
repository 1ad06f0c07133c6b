"""Tests for :mod:`repro.flash.admitpath`, the segmented admission
kernel, and its wiring into :class:`~repro.flash.driver.\
OnlineStreamSession`.

The kernel's contract is byte-identity with the scalar reference loop;
the deep equivalence sweeps live in the property suite and the
``admission`` determinism probe.  This file pins the mechanics: plan
shape and ordering, every demotion reason, mid-stream state export,
and the engine-resolution reporting.
"""

import numpy as np
import pytest

from repro.flash import admitpath
from repro.flash.admitpath import (
    DemotionRequired,
    VectorAdmissionWindow,
)
from repro.flash.driver import OnlineTracePlayer

from tests.support.builders import (crash_schedule, design_alloc,
                                    reference_play, reference_session)


def window(limit=3, overflow="delay", interval_ms=0.4):
    return VectorAdmissionWindow(interval_ms, limit, overflow)


def feed(win, times, base=0):
    arr = np.asarray(times, dtype=np.float64)
    win.feed(arr, np.arange(base, base + arr.size, dtype=np.int64))


class TestPlanShape:
    def test_within_budget_all_admitted(self):
        win = window(limit=5)
        feed(win, [0.0, 0.1, 0.2, 0.5, 0.6])
        plan = win.take(None)
        assert plan.order.tolist() == [0, 1, 2, 3, 4]
        assert plan.admitted.all()
        assert plan.starts.all()
        assert plan.n_admitted == 5
        assert plan.n_delayed == 0 and plan.n_rejected == 0

    def test_overflow_delay_spills_to_next_interval(self):
        win = window(limit=2)
        feed(win, [0.0, 0.01, 0.02, 0.03])
        plan = win.take(None)
        # two admitted in interval 0; the spill replays at the t=0.4
        # boundary in arrival order
        assert plan.n_admitted == 4
        assert plan.n_delayed == 2
        spilled = plan.times.tolist()[2:]
        assert spilled == [0.4, 0.4]
        assert plan.intervals.tolist() == [0, 0, 1, 1]
        # the boundary batch is simultaneous: one start, one follower
        assert plan.starts.tolist() == [True, True, True, False]

    def test_overflow_reject_marks_entries(self):
        win = window(limit=2, overflow="reject")
        feed(win, [0.0, 0.01, 0.02, 0.03])
        plan = win.take(None)
        assert plan.n_rejected == 2
        assert plan.admitted.tolist() == [True, True, False, False]

    def test_take_until_is_strictly_before(self):
        win = window(limit=5)
        feed(win, [0.0, 0.2, 0.4])
        plan = win.take(0.4)
        # advance(until) serves strictly-before arrivals only
        assert plan.order.tolist() == [0, 1]
        assert win.n_pending == 1
        rest = win.take(None)
        assert rest.order.tolist() == [2]


class TestDemotion:
    def test_sub_tolerance_gap_demotes(self):
        win = window(limit=5)
        feed(win, [0.1, 0.1 + 5e-13])
        with pytest.raises(DemotionRequired) as exc:
            win.take(None)
        assert exc.value.reason == "time_resolution"

    def test_out_of_order_feed_demotes(self):
        win = window(limit=5)
        feed(win, [0.9])
        assert win.take(None) is not None
        feed(win, [0.1], base=1)  # earlier than a served interval
        with pytest.raises(DemotionRequired) as exc:
            win.take(None)
        assert exc.value.reason == "out_of_order"

    def test_spill_boundary_near_an_arrival_demotes(self):
        # 20 requests at t=0 spill through 0.4 and 0.8 to the boundary
        # 3 * 0.4 == 1.2000000000000002, within the batching tolerance
        # of the arrival at 1.2: the scalar loop batches both at 1.2,
        # so the kernel must hand over -- with its state untouched
        win = window(limit=5)
        feed(win, [0.0] * 20 + [1.2])
        with pytest.raises(DemotionRequired) as exc:
            win.take(None)
        assert exc.value.reason == "time_resolution"
        state = win.export_state()
        assert (state["interval"], state["count"]) == (-1, 0)
        assert state["times"].size == 21

    def test_export_state_mid_interval(self):
        win = window(limit=2)
        feed(win, [0.0, 0.01, 0.02, 0.5])
        win.take(0.45)
        state = win.export_state()
        assert state["interval"] == 1
        assert state["count"] == 1  # the spill consumed one slot
        assert state["times"].tolist() == [0.5]

    def test_time_resolution_demotion_resumes_units(self):
        # A read and a write (1 + c = 4 units, 2 requests) fill most of
        # interval 0 before a sub-tolerance gap forces the scalar loop:
        # resume() must adopt the 4 units, so the next read fits
        # (5 <= S = 5) and the write after it does not.
        arrivals = [0.0, 0.05, 0.1, 0.1 + 5e-13, 0.2, 0.3]
        buckets = [0, 1, 2, 3, 4, 5]
        reads = [True, False, True, True, True, False]

        def run(reference=False):
            player = OnlineTracePlayer(design_alloc(), interval_ms=0.4)
            session = reference_session(player) if reference \
                else player.session()
            session.feed(arrivals[:2], buckets[:2], reads=reads[:2])
            session.advance(0.08)
            session.feed(arrivals[2:], buckets[2:], reads=reads[2:])
            return session, session.drain()

        session, (_, played) = run()
        assert session.admission_kernel == "scalar"
        assert session.admission_fallback_reason == "time_resolution"
        _, (_, played_ref) = run(reference=True)
        key = [(p.index, p.interval, p.delayed, p.io.issued_at,
                p.io.completed_at) for p in played]
        assert key == [(p.index, p.interval, p.delayed, p.io.issued_at,
                        p.io.completed_at) for p in played_ref]
        # index 2 (a read) fit at 5 units; 3, 4 and the write 5 spilled
        assert [p.index for p in played if p.interval == 0] == [0, 1, 2]


class TestWrites:
    """Writes cost ``c`` budget units and keep the session on the
    kernel."""

    def test_denied_write_then_reads_still_fit(self):
        # S = 5: three reads (3 units), a write (3 more: denied), then
        # two reads fill the last 2 units; the third read spills
        win = window(limit=5)
        arr = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
        costs = np.array([1, 1, 1, 3, 1, 1, 1])
        win.feed(arr, np.arange(7, dtype=np.int64), costs)
        plan = win.take(None)
        assert plan.order.tolist() == [0, 1, 2, 4, 5, 3, 6]
        assert plan.intervals.tolist() == [0, 0, 0, 0, 0, 1, 1]
        assert plan.n_delayed == 2
        # the spill keeps processing order: write first, then read
        assert plan.starts.tolist() == [True] * 6 + [False]

    def test_denied_write_under_reject(self):
        win = window(limit=5, overflow="reject")
        win.feed(np.array([0.0, 0.01, 0.02, 0.03, 0.04]),
                 np.arange(5, dtype=np.int64),
                 np.array([3, 1, 3, 1, 1]))
        plan = win.take(None)
        assert plan.order.tolist() == [0, 1, 2, 3, 4]
        assert plan.admitted.tolist() == [True, True, False, True, False]
        assert plan.n_rejected == 2

    def test_first_write_after_read_only_spill(self):
        # a read-only chunk overflows interval 0, so reads are carried
        # into interval 1 when the first write arrives: the carried
        # reads must count one unit each next to the write's c
        arrivals = [i * 0.01 for i in range(8)] + [0.41, 0.42, 0.43]
        buckets = list(range(11))
        reads = [True] * 8 + [False, True, False]

        def run(reference=False):
            player = OnlineTracePlayer(design_alloc(), interval_ms=0.4)
            session = reference_session(player) if reference \
                else player.session()
            session.feed(arrivals[:8], buckets[:8])
            session.advance(0.405)
            session.feed(arrivals[8:], buckets[8:], reads=reads[8:])
            return session, session.drain()[1]

        session, played = run()
        assert session.admission_kernel == "vector"
        _, ref = run(reference=True)
        key = [(p.index, p.interval, p.delayed, p.io.issued_at)
               for p in played]
        assert key == [(p.index, p.interval, p.delayed, p.io.issued_at)
                       for p in ref]
        # 3 carried reads + a write would be 6 units > S = 5: both
        # writes wait for interval 2, the read between them fits
        assert [p.index for p in played if p.interval == 1] == [5, 6, 7, 9]

    def test_session_stays_vector_and_matches_scalar(self):
        arrivals = [i * 0.05 for i in range(40)]
        buckets = [i % 36 for i in range(40)]
        reads = [i % 4 != 1 for i in range(40)]

        def run(reference=False, **kw):
            player = OnlineTracePlayer(design_alloc(), interval_ms=0.4,
                                       **kw)
            session = reference_session(player) if reference \
                else player.session()
            session.feed(arrivals[:20], buckets[:20], reads=reads[:20])
            session.advance(arrivals[20])
            session.feed(arrivals[20:], buckets[20:], reads=reads[20:])
            return session, session.drain()

        for kw in ({}, {"overflow": "reject"},
                   {"faults": crash_schedule(0, at=0.6)}):
            session, (_, played) = run(**kw)
            assert session.admission_kernel == "vector"
            assert session.admission_fallback_reason == ""
            _, (_, played_ref) = run(reference=True, **kw)
            key = [(p.index, p.interval, p.delayed, p.rejected,
                    p.io.is_read, p.io.device, p.io.issued_at,
                    p.io.completed_at) for p in played]
            assert key == [(p.index, p.interval, p.delayed, p.rejected,
                            p.io.is_read, p.io.device, p.io.issued_at,
                            p.io.completed_at) for p in played_ref]
            assert any(not p.io.is_read for p in played)


class TestSessionReporting:
    def test_vector_session_reports_and_tallies(self):
        session = OnlineTracePlayer(design_alloc(),
                                    interval_ms=0.4).session()
        assert session.admission_kernel == "vector"
        assert session.admission_fallback_reason == ""

    def test_demoted_session_reports_its_reason(self):
        player = OnlineTracePlayer(design_alloc(), interval_ms=0.4)
        session = reference_session(player)
        assert session.admission_kernel == "scalar"
        assert session.admission_fallback_reason == "reference"
        # demotion is per session: the next one still takes the kernel
        assert player.session().admission_kernel == "vector"

    def test_des_session_stays_scalar(self):
        session = OnlineTracePlayer(design_alloc(), interval_ms=0.4,
                                    engine="des").session()
        assert session.admission_kernel == "scalar"
        assert session.admission_fallback_reason == "des_engine"

class TestBulkSpan:
    """The jammed dispatch loop for runs of admitted singletons."""

    def run_pair(self, arrivals, buckets, **kw):
        player = OnlineTracePlayer(design_alloc(), interval_ms=0.4,
                                   **kw)
        session = player.session()
        session.feed(arrivals, buckets)
        _, played = session.drain()
        player = OnlineTracePlayer(design_alloc(), interval_ms=0.4,
                                   **kw)
        _, ref = reference_play(player, arrivals, buckets)
        key = [(p.index, p.interval, p.delayed, p.rejected,
                p.io.device, p.io.issued_at, p.io.started_at,
                p.io.completed_at, p.io.failed) for p in played]
        ref_key = [(p.index, p.interval, p.delayed, p.rejected,
                    p.io.device, p.io.issued_at, p.io.started_at,
                    p.io.completed_at, p.io.failed) for p in ref]
        assert key == ref_key
        return played

    def test_contended_first_replica_takes_reference_arithmetic(self):
        # every request hits the same bucket, so the first live
        # replica is busy for most of them -- the slow arm must
        # reproduce _pick's first-idle-then-first-minimal choice
        arrivals = [i * 0.01 for i in range(64)]
        self.run_pair(arrivals, [0] * 64)

    def test_mask_change_mid_span(self):
        # a crash in the middle of an uncongested run cuts the span
        # at the mask boundary; placement flips replicas exactly there
        arrivals = [i * 0.25 for i in range(80)]
        buckets = [i % 36 for i in range(80)]
        played = self.run_pair(arrivals, buckets,
                               faults=crash_schedule(0, 4, at=5.0))
        assert any(p.io.device in (0, 4) for p in played[:16])
        later = [p for p in played if p.io.arrival >= 5.0]
        assert all(p.io.device not in (0, 4) for p in later)

    def test_all_replicas_masked_is_unavailable(self):
        # crash every module: the bulk span must emit the same
        # unavailable rows as the scalar loop
        played = self.run_pair([0.6, 0.85], [0, 1],
                               faults=crash_schedule(*range(9),
                                                     at=0.5))
        assert all(p.io.failed for p in played)


class TestResultCacheCoupling:
    def test_demotion_never_reaches_runtime_token(self):
        # the admission path is a property of the session, decided by
        # its configuration: nothing process-wide keys the cache on it
        from repro.runner.cache import runtime_token

        before = runtime_token()
        reference_session(OnlineTracePlayer(design_alloc(),
                                            interval_ms=0.4))
        assert runtime_token() == before
        assert "admission_kernel" not in before


class TestLinearCarry:
    """Under sustained overload the delayed carry grows to most of the
    trace.  A step reads the carry only as far as the greedy rule can
    reach, so the entries all steps read grow linearly with the
    requests, not with requests times carry length."""

    def scanned(self, n, monkeypatch):
        """Entries the greedy rule read over one take of an
        overloaded ``n``-request window with 10% writes."""
        counted = []
        greedy = admitpath._greedy_admit

        def counting(costs, count0, limit):
            counted.append(len(costs))
            return greedy(costs, count0, limit)

        monkeypatch.setattr(admitpath, "_greedy_admit", counting)
        rng = np.random.default_rng(0)
        win = window(limit=5, interval_ms=0.133)
        costs = np.where(rng.random(n) < 0.1, 3, 1)
        win.feed(np.cumsum(rng.exponential(0.02, n)),
                 np.arange(n, dtype=np.int64), costs)
        plan = win.take(None)
        assert plan.n_delayed > n  # most requests wait several intervals
        return sum(counted)

    def test_scanned_entries_grow_linearly(self, monkeypatch):
        small, large = (self.scanned(n, monkeypatch) for n in (2000, 8000))
        assert large <= 4.4 * small, (small, large)
        assert large <= 8 * 8000, large
