"""Failover in the faulted replay, case by case.

:class:`repro.flash.faulted.FaultedReplay` serves the module queues in
rounds and merges each failover re-submission into its target queue
as it is made, rewinding a target that already served past it.  Each
case here pins one situation the waves must get right, checks that
the replay really met it, and demands every ``PlayedTable`` column
and ``faults.*`` counter equal the DES's.

Nine reads of bucket 0 (modules 0, 1, 2) at t = 0 put three on each
module: one in service and two queued.  Module 0 crashes at 0.05 ms,
so its two queued reads fail at the same dequeue instant and both fail
over to module 1.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.flash import faulted
from repro.flash.driver import BatchTracePlayer, OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from tests.properties.test_property_played_table import assert_same_columns
from tests.support.builders import design_alloc

ALLOC = design_alloc()
BURST = [0.0] * 9, [0] * 9  # bucket 0 lives on modules (0, 1, 2)


@pytest.fixture
def spy(monkeypatch):
    """Records each replay's queue edits ``(module, position, next row
    and draw counter before the edit)`` and its final re-submissions."""
    seen = {"edits": [], "resubs": []}
    moved, run = faulted.FaultedReplay._moved, faulted.FaultedReplay.run

    def spy_moved(self, m, p):
        seen["edits"].append((m, p, *self._job[m][::2]))
        moved(self, m, p)

    def spy_run(self, log):
        run(self, log)
        live = set(self._child.values())
        seen["resubs"] = [r[:3] for i, r in enumerate(self._resub)
                          if self._n + i in live]

    monkeypatch.setattr(faulted.FaultedReplay, "_moved", spy_moved)
    monkeypatch.setattr(faulted.FaultedReplay, "run", spy_run)
    return seen


def both(player_cls, schedule, arrivals, buckets, **kwargs):
    """The fast play's table and fault counters, checked against the
    DES's."""
    outs = []
    for engine in ("fast", "des"):
        player = player_cls(ALLOC, interval_ms=0.4, params=MSR_SSD_PARAMS,
                            engine=engine, faults=schedule, **kwargs)
        with obs.observed() as session:
            played = player.play(arrivals, buckets)[1]
        counters = session.registry.to_dict()["counters"]
        outs.append((played, {k: v for k, v in counters.items()
                              if k.startswith("faults.")}))
    (fast, fast_faults), (des, des_faults) = outs
    assert_same_columns(fast, des)
    assert fast_faults == des_faults
    return fast, fast_faults


def test_equal_put_and_created_resubmissions_keep_pop_order(spy):
    schedule = FaultSchedule([FaultEvent("crash", 0, 0.05)], n_modules=9,
                             retry=RetryPolicy(max_retries=1,
                                               backoff_ms=0.05))
    played, counters = both(OnlineTracePlayer, schedule, *BURST,
                            accesses=4)
    assert len(spy["resubs"]) == 2
    assert spy["resubs"][0] == spy["resubs"][1]  # same (module, put, created)
    assert counters["faults.failover"] == 2
    moved = np.flatnonzero(played.retries == 1)
    assert played.device[moved].tolist() == [1, 1]
    # the earlier-queued read was popped first, so it is served first
    assert played.completed[moved[0]] < played.completed[moved[1]]


def test_simultaneous_failovers_take_the_event_loop_order(spy):
    """Eleven reads at t = 0 put two on module 8 (rows 2 and 9) and
    two on module 5 (rows 3 and 7); both modules draw read errors from
    0.1 ms, so rows 9 and 7 fail both attempts in lockstep, at the same
    instant, and both fail over to module 3.  The DES queues them in
    the order it pops the two failed attempts' completions, which
    follows the modules' earlier service: row 2 was put before row 3,
    so module 8 runs ahead and row 9 lands first, although row 7 comes
    first in the driver's order."""
    schedule = FaultSchedule([
        FaultEvent("read_error", 5, 0.1, 5.0, prob=1.0),
        FaultEvent("read_error", 8, 0.1, 5.0, prob=1.0),
    ], n_modules=9, retry=RetryPolicy(max_retries=1, backoff_ms=0.0))
    # bucket 10 lives on (3, 4, 5), 16 on (3, 8, 1), 22 on (4, 5, 3)
    buckets = [22, 10, 16, 22, 10, 16, 10, 10, 22, 16, 22]
    played, _ = both(OnlineTracePlayer, schedule, [0.0] * 11, buckets,
                     accesses=4)
    assert played.device[[2, 3, 7, 9]].tolist() == [8, 5, 3, 3]
    assert played.retries[[7, 9]].tolist() == [2, 2]
    assert (3, 0.397521, 0.397521) in [
        (m, round(put, 6), round(t, 6)) for m, put, t in spy["resubs"]]
    assert played.started[9] < played.started[7]


def test_replay_is_freed_on_return(monkeypatch):
    """The replay's wake-up events refer back to it only weakly, so a
    finished replay (and its columns) goes as soon as the play returns,
    not at the next full garbage collection."""
    replays = []
    run = faulted.FaultedReplay.run

    def spy_run(self, log):
        replays.append(weakref.ref(self))
        run(self, log)

    monkeypatch.setattr(faulted.FaultedReplay, "run", spy_run)
    # the burst of the case above, a millisecond later: its failovers
    # order wake-up events of the driver loop past its start
    schedule = FaultSchedule([
        FaultEvent("read_error", 5, 1.1, 6.0, prob=1.0),
        FaultEvent("read_error", 8, 1.1, 6.0, prob=1.0),
    ], n_modules=9, retry=RetryPolicy(max_retries=1, backoff_ms=0.0))
    buckets = [22, 10, 16, 22, 10, 16, 10, 10, 22, 16, 22]
    gc.disable()
    try:
        played, counters = both(OnlineTracePlayer, schedule, [1.0] * 11,
                                buckets, accesses=4)
        assert counters["faults.failover"] == 3
        assert len(replays) == 1 and replays[0]() is None
    finally:
        gc.enable()


def test_failover_ahead_of_served_rows_reruns_the_suffix(spy):
    """Module 1 draws read errors until 0.3 ms, then dequeues quietly
    until 1.0 ms, so one quiet run serves the reads placed on it at 0.4
    and 0.8 ms.  Module 0 crashes at 0.45 ms under two queued reads
    (its slow first read keeps it a round behind); their re-submissions
    land on module 1 at 0.58 ms, ahead of the 0.8 ms reads, and module
    1 rewinds.  The rows after the rewind draw errors again, so the
    draw counter it restores must be the one at the merged position."""
    schedule = FaultSchedule([
        FaultEvent("slow", 0, 0.0, 0.1, factor=2.0),
        FaultEvent("read_error", 1, 0.0, 0.3, prob=0.5),
        FaultEvent("crash", 0, 0.45),
        FaultEvent("read_error", 1, 1.0, 3.0, prob=0.5),
    ], n_modules=9, seed=3, retry=RetryPolicy(max_retries=1,
                                              backoff_ms=0.05))
    arrivals = [0.0, 0.0, 0.14, 0.28] + [0.4] * 9 \
        + [0.8, 0.8, 1.2, 1.2, 1.6, 1.6]
    # bucket 1 lives on (0, 3, 6), bucket 4 on (1, 3, 8)
    buckets = [1, 4, 4, 4] + BURST[1] + [4] * 6
    both(OnlineTracePlayer, schedule, arrivals, buckets, accesses=4)
    rewinds = [(p, draws) for m, p, k, draws in spy["edits"]
               if m == 1 and p < k]
    assert any(p > 0 and draws > 0 for p, draws in rewinds), spy["edits"]


def test_three_module_failover_chain():
    """Modules 0 and 1 fail every read attempt: the read retries twice
    on each, fails over twice and completes on module 2."""
    schedule = FaultSchedule([
        FaultEvent("read_error", 0, 0.0, 50.0, prob=1.0),
        FaultEvent("read_error", 1, 0.0, 50.0, prob=1.0),
    ], n_modules=9, retry=RetryPolicy(max_retries=2, backoff_ms=0.05))
    played, counters = both(OnlineTracePlayer, schedule, [0.0], [0])
    assert played.device.tolist() == [2]
    assert played.retries.tolist() == [6]  # 2 + 1 failover + 2 + 1
    assert played.faulted.tolist() == [True]
    assert played.failed.tolist() == [False]
    assert counters["faults.failover"] == 2


def test_batch_player_never_fails_over(spy):
    schedule = FaultSchedule([FaultEvent("crash", 0, 0.05)], n_modules=9)
    played, counters = both(BatchTracePlayer, schedule, *BURST)
    assert spy["resubs"] == [] and spy["edits"] == []
    assert "faults.failover" not in counters
    assert played.failed.any()
    assert not played.retries.any()
