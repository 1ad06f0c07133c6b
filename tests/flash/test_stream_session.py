"""Tests for :class:`repro.flash.driver.OnlineStreamSession`.

The session is the one-shot play loop made re-entrant, so the load-
bearing property is *chunking invariance*: however the trace is split
into ``feed``/``advance`` steps, the drained result must be
byte-identical to a single ``play`` call.
"""

import pytest

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.faults import FaultModel, FaultSchedule
from repro.flash.driver import OnlineTracePlayer
from tests.support.builders import reference_play, reference_session

ALLOC = DesignTheoreticAllocation.from_parameters(9, 3)


def make_trace(n=240, gap=0.11):
    arrivals = [i * gap for i in range(n)]
    buckets = [(i * 7) % ALLOC.n_buckets for i in range(n)]
    return arrivals, buckets


def played_key(played):
    return [(p.index, p.interval, p.delayed, p.rejected,
             p.io.response_ms, p.io.total_ms) for p in played]


def series_key(series):
    return [(i, series.stats(i).n_total, series.stats(i).state())
            for i in series.intervals()]


def make_player(**kw):
    kw.setdefault("interval_ms", 0.4)
    return OnlineTracePlayer(ALLOC, **kw)


def open_session(kernel):
    """A session on the ``"vector"`` kernel or the ``"scalar"`` loop."""
    player = make_player()
    if kernel == "scalar":
        return reference_session(player)
    return player.session()


class TestChunkingInvariance:
    @pytest.mark.parametrize("n_chunks", [1, 2, 5, 11])
    def test_chunked_feed_equals_play(self, n_chunks):
        arrivals, buckets = make_trace()
        series_ref, played_ref = make_player().play(arrivals, buckets)

        session = make_player().session()
        size = max(1, len(arrivals) // n_chunks)
        for start in range(0, len(arrivals), size):
            chunk = slice(start, start + size)
            if start:
                # serve everything strictly before the chunk starts
                session.advance(arrivals[start])
            session.feed(arrivals[chunk], buckets[chunk])
        series, played = session.drain()
        assert played_key(played) == played_key(played_ref)
        assert series_key(series) == series_key(series_ref)

    def test_boundary_coincident_arrivals_batch_across_chunks(self):
        # two arrivals at the same timestamp split across chunks must
        # still be admitted as one batch (advance is strictly-before)
        arrivals = [0.0, 0.5, 0.5, 1.0]
        buckets = [0, 1, 2, 3]
        _, played_ref = make_player().play(arrivals, buckets)
        session = make_player().session()
        session.feed(arrivals[:2], buckets[:2])
        session.advance(0.5)
        assert session.n_pending == 1  # the t=0.5 arrival waits
        session.feed(arrivals[2:], buckets[2:])
        _, played = session.drain()
        assert played_key(played) == played_key(played_ref)

    def test_overflow_requeues_cross_chunks(self):
        # a burst far over the interval budget delays requests into
        # later intervals; re-queues must interleave with arrivals fed
        # later exactly as in the one-shot run
        arrivals = [0.01 * i for i in range(60)]
        buckets = [i % ALLOC.n_buckets for i in range(60)]
        _, played_ref = make_player().play(arrivals, buckets)
        session = make_player().session()
        session.feed(arrivals[:30], buckets[:30])
        session.advance(arrivals[30])
        session.feed(arrivals[30:], buckets[30:])
        _, played = session.drain()
        assert played_key(played) == played_key(played_ref)

    def test_faulted_fast_session_equals_play(self):
        schedule = FaultSchedule.crashes([0])
        arrivals, buckets = make_trace(n=120)
        player = make_player(faults=schedule)
        assert player.engine == "fast"
        _, played_ref = player.play(arrivals, buckets)
        session = make_player(faults=schedule).session()
        session.feed(arrivals[:60], buckets[:60])
        session.advance(arrivals[60])
        session.feed(arrivals[60:], buckets[60:])
        _, played = session.drain()
        assert played_key(played) == played_key(played_ref)


class TestSessionsShareNoReplay:
    """Every session replays its faults on its own
    :class:`~repro.flash.faulted.FaultedReplay`, so sessions and plays
    on one faulted player never see each other's submissions."""

    @pytest.fixture(scope="class")
    def schedule(self):
        model = FaultModel(crash_prob=0.2, down_rate=0.05,
                           down_mean_ms=2.0, slow_rate=0.05,
                           slow_mean_ms=2.0, slow_factor=3.0,
                           error_rate=0.08, error_mean_ms=3.0,
                           error_prob=0.5)
        return model.materialize(ALLOC.n_devices, horizon_ms=30.0,
                                 seed=3)

    @staticmethod
    def outcome(played):
        return [(p.index, p.io.device, p.io.issued_at,
                 p.io.completed_at, p.failed, p.io.retries)
                for p in played]

    def reference(self, schedule, arrivals, buckets):
        _, played = make_player(faults=schedule).play(arrivals, buckets)
        assert any(p.io.faulted for p in played)  # not vacuous
        return self.outcome(played)

    def test_two_open_sessions(self, schedule):
        arrivals, buckets = make_trace()
        ref = self.reference(schedule, arrivals, buckets)
        player = make_player(faults=schedule)
        first, second = player.session(), player.session()
        first.feed(arrivals, buckets)
        second.feed(arrivals, buckets)
        assert self.outcome(first.drain()[1]) == ref
        assert self.outcome(second.drain()[1]) == ref

    def test_play_while_a_session_is_open(self, schedule):
        arrivals, buckets = make_trace()
        ref = self.reference(schedule, arrivals, buckets)
        player = make_player(faults=schedule)
        half = len(arrivals) // 2
        session = player.session()
        session.feed(arrivals[:half], buckets[:half])
        session.advance(arrivals[half])
        assert self.outcome(player.play(arrivals, buckets)[1]) == ref
        session.feed(arrivals[half:], buckets[half:])
        assert self.outcome(session.drain()[1]) == ref


class TestDESSession:
    def test_des_feed_all_then_drain_matches_fast(self):
        arrivals, buckets = make_trace(n=120)
        des = make_player(engine="des").session()
        des.feed(arrivals, buckets)
        series_des, played_des = des.drain()
        fast = make_player(engine="fast").session()
        fast.feed(arrivals, buckets)
        series_fast, played_fast = fast.drain()
        assert played_key(played_des) == played_key(played_fast)
        assert series_key(series_des) == series_key(series_fast)

    def test_des_advance_raises(self):
        session = make_player(engine="des").session()
        session.feed([0.0], [0])
        with pytest.raises(RuntimeError, match="fast engine"):
            session.advance(1.0)


class TestLifecycle:
    def test_mid_stream_observation(self):
        arrivals, buckets = make_trace(n=40, gap=0.5)
        session = make_player().session()
        session.feed(arrivals[:20], buckets[:20])
        assert len(session) == 20
        session.advance(arrivals[20])
        assert session.n_pending == 0
        assert len(session.played) == 20  # served, inspectable now
        session.feed(arrivals[20:], buckets[20:])
        session.drain()

    def test_drain_twice_raises(self):
        session = make_player().session()
        session.feed([0.0], [0])
        session.drain()
        with pytest.raises(RuntimeError, match="drained"):
            session.drain()

    def test_feed_after_drain_raises(self):
        session = make_player().session()
        session.drain()
        with pytest.raises(RuntimeError, match="drained"):
            session.feed([0.0], [0])
        with pytest.raises(RuntimeError, match="drained"):
            session.advance(1.0)

    def test_feed_validation(self):
        session = make_player().session()
        with pytest.raises(ValueError, match="align"):
            session.feed([0.0, 1.0], [0])
        with pytest.raises(ValueError, match="reads"):
            session.feed([0.0], [0], reads=[True, False])

class TestArrivalValidation:
    """Arrivals are checked once, when a chunk is fed: a NaN, infinite
    or negative time raises on every engine instead of being dropped
    (vector kernel), failing a cast (scalar loop), hanging the event
    loop (DES) or landing in a negative interval (fast engine)."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -0.5])
    @pytest.mark.parametrize("engine", ["vector", "scalar", "des"])
    def test_bad_arrival_raises_naming_its_index(self, bad, engine):
        player = make_player(engine="des" if engine == "des" else "auto")
        with pytest.raises(ValueError, match=r"arrival 1 of the chunk"):
            if engine == "scalar":
                reference_play(player, [0.1, bad, 0.3], [0, 1, 2])
            else:
                player.play([0.1, bad, 0.3], [0, 1, 2])

    def test_index_is_within_the_chunk(self):
        session = make_player().session()
        session.feed([0.1, 0.2], [0, 1])
        with pytest.raises(ValueError, match=r"arrival 2 of the chunk"):
            session.feed([0.3, 0.4, float("nan")], [2, 3, 4])
        # the refused chunk left nothing behind
        assert len(session) == 2 and session.n_pending == 2

    @pytest.mark.parametrize("engine", ["auto", "des"])
    def test_zero_and_negative_zero_are_valid(self, engine):
        _, played = make_player(engine=engine).play([-0.0, 0.0, 0.2],
                                                    [0, 1, 2])
        assert [p.interval for p in played] == [0, 0, 0]


class TestFeedBehindTheClock:
    """A feed may not arrive behind the last ``advance`` cut: that
    interval was already processed, so the request would be played
    late and charged to the current admission window."""

    @pytest.mark.parametrize("kernel", ["vector", "scalar"])
    def test_arrival_behind_the_cut_raises(self, kernel):
        session = open_session(kernel)
        session.feed([0.0, 0.1, 0.5], [0, 1, 2])
        session.advance(0.4)
        with pytest.raises(ValueError,
                           match=r"arrival 1 of the chunk .*behind"):
            session.feed([0.45, 0.2], [3, 4])
        # the refused chunk left nothing behind
        assert len(session) == 3
        _, played = session.drain()
        assert sorted(played.index.tolist()) == [0, 1, 2]

    @pytest.mark.parametrize("kernel", ["vector", "scalar"])
    def test_arrival_at_the_cut_tolerance_is_accepted(self, kernel):
        session = open_session(kernel)
        session.feed([0.0, 0.1], [0, 1])
        session.advance(0.4)
        session.feed([0.4 - 1e-12, 0.4], [2, 3])
        _, chunked = session.drain()
        _, one_shot = make_player().play(
            [0.0, 0.1, 0.4 - 1e-12, 0.4], [0, 1, 2, 3])
        assert played_key(chunked) == played_key(one_shot)
