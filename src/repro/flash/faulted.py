"""Faulted fast playback: replay module queues without the event loop.

A fault schedule is materialised before playback (:mod:`repro.faults`),
so every fault outcome is a pure function of the schedule, the
per-module draw counters and the submission order.  This module
replays each module's FIFO queue with the event loop's arithmetic,
operation for operation: byte-identical to the DES, as the ``faults``
probe, the golden snapshots and the fault properties enforce.

* **Submission order.**  Placement never reads a fault outcome, so the
  driver phase is the healthy fast path's.  Submissions append to
  columns (row, module, put, created, candidates; ``seq`` is the column
  index; service and write master come from the write groups), and
  :meth:`FaultedReplay.run` sorts them once by ``(module, put, created,
  seq)``: the DES event queue's order of queue puts.
* **Segmentation.**  Each module's change-point table
  (:meth:`repro.faults.FaultSchedule.loud_windows`) splits time into
  quiet stretches and loud windows.  A queue is served row by row
  with the plain FCFS recurrence, ``completed = max(put, previous
  completion) + service``, while each dequeue instant ``max(put,
  previous completion)`` falls before the next loud window.  The first
  row dequeued inside one takes the scalar
  :meth:`~FaultedReplay._serve` (a mirror of
  :meth:`repro.flash.module.FlashModule._serve_faulty`) until a
  dequeue is quiet again.  A fault-free module has no loud window.
* **Failover in waves.**  A failed read is re-submitted on its next
  live untried replica at the failing attempt's completion plus the
  backoff, as the online driver retries it.  Each round's scalar rows
  are served in dequeue order across modules, and only while no other
  module could fail earlier (its next loud window starts later); each
  re-submission is merged into its target queue as it is made, so it
  lands behind every loud row already served there.  A target that
  ran past it rewinds to the merged position and re-serves that
  suffix, which holds quiet rows only.

Three rules keep this exact:

1. Quiet is decided by the table's values at the dequeue instant of
   each attempt, not by whether the module has events: ``slowdown``
   and ``error_prob`` are sampled at the start of an attempt, and a
   quiet segment draws no read-error.
2. Queue puts at one instant take the event loop's order: a
   submission's ``seq`` is the :class:`_Event` that puts it (a
   driver process's start or issue timeout, a failed attempt's
   completion, a failover backoff), and events are ordered by time,
   then by the order of the events that scheduled them, then by
   scheduling order -- the DES's ``(time, sequence)`` heap order.
   Events are built only for failovers, from the driver's wake-ups
   (:attr:`FaultedReplay.wakes`) and the served rows' timelines.
3. When a suffix is re-run, the module's ``free`` time and read-error
   draw counter are restored to their values at that position;
   re-submissions from the old suffix are withdrawn, and ``obs`` fault
   counters are emitted once, from the final outcomes.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.flash.played import FAILED, FAULTED, reason_code

__all__ = ["FaultedReplay"]

_INF = float("inf")
#: flag bit (beyond the played-table bits): served by ``_serve``
_SCALAR = 128
_DEAD = reason_code("dead")
_READ_ERROR = reason_code("read_error")
#: one submission's service outcome; ``drawn`` is the module's
#: read-error draw counter after it, ``started`` NaN until service
#: starts
_OUTCOME = np.dtype([("started", np.float64), ("completed", np.float64),
                     ("drawn", np.int64), ("retries", np.int32),
                     ("flags", np.uint8), ("reason", np.uint8)])


class _Event:
    """One DES event, ordered as the event loop pops it.

    ``t`` is its time, ``parent`` the event in whose processing it was
    scheduled (``None`` for the root) and ``i`` its place among that
    event's children.  The loop pops by ``(time, sequence)`` and
    sequence numbers follow scheduling order, so ``a < b`` compares
    ``(t, parent, i)`` lexicographically.
    """

    __slots__ = ("t", "parent", "i")

    def __init__(self, t: float, parent: Optional["_Event"], i: float):
        self.t, self.parent, self.i = t, parent, i

    def __lt__(self, other: "_Event") -> bool:
        return _order(self, other) < 0

    def __eq__(self, other) -> bool:
        return isinstance(other, _Event) and _order(self, other) == 0

    __hash__ = None


#: the driver loop's start at time 0
_ROOT = _Event(0.0, None, 0)


class _Wake(_Event):
    """The driver loop's ``k``-th wake-up: the timeout the one before
    schedules last, after starting the processes it placed.  Its
    parent is built only when a comparison reaches it, by the replay,
    held weakly so the replay's memo of these is no reference cycle
    (a cycle kept each finished replay alive until a full GC)."""

    __slots__ = ("_replay", "_k")

    def __init__(self, t: float, replay: "FaultedReplay", k: int):
        self.t, self.i, self._k = t, _INF, k
        self._replay = weakref.ref(replay)

    @property
    def parent(self) -> _Event:
        return self._replay()._wake_event(self._k - 1)


def _order(a: Optional[_Event], b: Optional[_Event]) -> int:
    """-1, 0 or 1 as ``a`` pops before, with or after ``b``; iterative,
    as the ancestries can be long."""
    places = []
    while a is not b:
        if a is None or b is None:
            return -1 if a is None else 1
        if a.t != b.t:
            return -1 if a.t < b.t else 1
        places.append((a.i, b.i))
        a, b = a.parent, b.parent
    for i, j in reversed(places):
        if i != j:
            return -1 if i < j else 1
    return 0


class FaultedReplay:
    """Replay one play-through's module queues under a fault schedule.

    The driver submits reads and writes as it places them, naming the
    played-table row each was logged at; :meth:`run` writes every row's
    service outcome as the DES module loops would.  ``schedule`` is a
    :class:`repro.faults.FaultSchedule`, ``params`` the
    :class:`~repro.flash.params.FlashParams`.
    """

    def __init__(self, schedule, n_modules: int, params):
        self.schedule = schedule
        self.retry = schedule.retry
        self.n_modules = n_modules
        self._read_ms = params.service_ms(True)
        self._write_ms = params.service_ms(False)
        #: submission columns; the column index is the driver ``seq``
        self._row, self._module = array("q"), array("q")
        self._put, self._created = array("d"), array("d")
        self._candidates: List[Optional[Sequence[int]]] = []
        #: write masters: first replica seq and replica count
        self._write_first, self._write_count = array("q"), array("q")
        #: the driver's wake-up times (one per batch of simultaneous
        #: arrivals, whatever it placed), in order: a float per
        #: scalar wake-up, an array per vectorised plan
        self.wakes: list = []

    # -- driver-side API --------------------------------------------------
    def submit_read(self, row: int, module: int, issue_at: float,
                    created: float,
                    candidates: Optional[Sequence[int]] = None) -> None:
        """The one submission hook: the read logged at ``row``, placed
        on ``module`` at ``issue_at`` by a process created at
        ``created``; ``candidates`` enables driver failover (write
        replicas enter here too, without)."""
        self._row.append(row)
        self._module.append(module)
        self._put.append(issue_at)
        self._created.append(created)
        self._candidates.append(candidates)

    def submit_reads(self, rows: np.ndarray, modules: np.ndarray,
                     issue_at: np.ndarray, created: np.ndarray,
                     candidates: Sequence[Sequence[int]]) -> None:
        """:meth:`submit_read` over aligned columns, one read each.

        The reads may follow submissions made after them in play
        order: a submission's id breaks ties only between puts on one
        module at one instant by processes created at one instant,
        which share a wake-up, so this is exact when each read is the
        only request of its wake-up's batch."""
        self._row.frombytes(np.asarray(rows, np.int64).tobytes())
        self._module.frombytes(np.asarray(modules, np.int64).tobytes())
        self._put.frombytes(np.asarray(issue_at, np.float64).tobytes())
        self._created.frombytes(np.asarray(created, np.float64).tobytes())
        self._candidates.extend(candidates)

    def submit_write(self, row: int, devices: Sequence[int],
                     issue_at: float, created: float) -> None:
        """Record the write logged at ``row``, applied to every device
        in ``devices``."""
        self._write_first.append(len(self._row))
        self._write_count.append(len(devices))
        for d in devices:
            self.submit_read(row, d, issue_at, created)

    # -- replay -----------------------------------------------------------
    def run(self, log) -> None:
        """Serve every submission; writes the outcomes into ``log``'s
        rows (a :class:`repro.flash.played.PlayedLog`)."""
        n = self._n = len(self._row)
        if not n:
            return
        log.table()  # commit the log's row lists before the columns grow
        self._modules = np.frombuffer(self._module, np.int64)
        self._puts = np.frombuffer(self._put)
        self._creates = np.frombuffer(self._created)
        marks = np.zeros(n + 1, np.int64)
        if self._write_first:
            first = np.frombuffer(self._write_first, np.int64)
            marks[first] += 1
            marks[first + np.frombuffer(self._write_count, np.int64)] -= 1
        self._is_write = np.cumsum(marks[:n]) > 0
        #: service time by submission id (re-submissions are reads)
        self._svc = np.full(n + 16, self._read_ms)
        self._svc[:n][self._is_write] = self._write_ms
        order = np.lexsort((self._creates, self._puts, self._modules))
        cuts = np.searchsorted(self._modules[order],
                               np.arange(self.n_modules + 1))
        self._queue = [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        self._qput = [self._puts[q] for q in self._queue]
        self._out = np.zeros(n + 16, _OUTCOME)
        #: re-submissions, id ``n + i``: (module, put, created, key,
        #: attempt, tried, candidates), and failed id -> its re-submission
        self._resub: List[tuple] = []
        self._child: Dict[int, int] = {}
        self._events: Dict[int, List[str]] = {}  # scalar rows' faults
        #: per module: position -> the event ending that row's service
        self._ends: List[Dict[int, _Event]] = [{} for _ in
                                               range(self.n_modules)]
        self._puts_at: Dict[int, _Event] = {}
        self._wake_at: Dict[int, _Event] = {}
        self._wake_times: Optional[np.ndarray] = None
        modules = range(self.n_modules)
        self._loud = [self.schedule.loud_windows(m) for m in modules]
        #: per module: next row, ``free``, draw counter; the hazard
        #: (:meth:`_next`)
        self._job = [[0, 0.0, 0] for _ in modules]
        self._hazard = [self._next(m) for m in modules]
        while any(state < 2 for _, state in self._hazard):
            for m in modules:
                # a withdrawal while serving an earlier module may have
                # rewound this one; its run is taken after that edit
                if self._hazard[m][1] == 1:
                    self._serve_quiet(m)
            self._serve_loud()
        self._fill(log)
        if obs.ACTIVE:
            for kind, count in Counter(
                    k for ev in self._events.values() for k in ev).items():
                obs.SESSION.on_fault(kind, count)

    def _key(self, s) -> _Event:
        """The event whose processing puts ``s`` on its queue."""
        s = int(s)
        if s >= self._n:
            return self._resub[s - self._n][3]
        ev = self._puts_at.get(s)
        if ev is None:
            created, put = float(self._creates[s]), float(self._puts[s])
            ev = _Event(created, self._wake(created),  # its start
                        self._first(s))
            if put != created:
                ev = _Event(put, ev, 0)  # its issue timeout
            self._puts_at[s] = ev
        return ev

    def _first(self, s: int) -> int:
        """The first submission of ``s``'s driver process (a write
        process puts its replicas in order, in one event)."""
        if not self._is_write[s]:
            return s
        firsts = np.frombuffer(self._write_first, np.int64)
        return int(firsts[np.searchsorted(firsts, s, "right") - 1])

    def _wake(self, t: float) -> _Event:
        """The driver loop's wake-up event at ``t``."""
        if self._wake_times is None:
            parts, floats = [], []
            for w in self.wakes:
                if isinstance(w, float):
                    floats.append(w)
                else:
                    parts += [np.array(floats, np.float64), w]
                    floats = []
            self._wake_times = np.concatenate(
                parts + [np.array(floats, np.float64)])
        return self._wake_event(int(np.searchsorted(self._wake_times, t)))

    def _wake_event(self, k: int) -> _Event:
        """The driver loop's ``k``-th wake-up event; built on demand,
        its parent (the one before) too."""
        if k < 0:
            return _ROOT
        ev = self._wake_at.get(k)
        if ev is None:
            t = float(self._wake_times[k])
            ev = self._wake_at[k] = _ROOT if k == 0 and t == 0.0 \
                else _Wake(t, self, k)
        return ev

    def _end(self, m: int, p: int) -> _Event:
        """The event ending served row ``p`` of module ``m``: its last
        attempt's timeout, or its dequeue when it failed dead."""
        memo, ids, puts = self._ends[m], self._queue[m], self._qput[m]
        completed = self._out["completed"]
        todo = []
        q = p
        while q not in memo:
            todo.append(q)
            if not q or puts[q] > completed[ids[q - 1]]:
                break  # dequeued on its own put
            q -= 1
        ev = memo.get(q)
        for q in reversed(todo):
            s = int(ids[q])
            put = float(puts[q])
            free, draws = self._state(ids[q - 1]) if q else (0.0, 0)
            ev = self._dequeue(s, put, ev, free)
            if self._out["flags"][s] & _SCALAR:
                times = self._attempts(s, m, put, free, draws)[-1]
            else:
                times = (float(completed[s]),)
            for t in times:
                ev = _Event(t, ev, 0)
            memo[q] = ev
        return ev

    def _dequeue(self, s: int, put: float, prev: Optional[_Event],
                 free: float) -> _Event:
        """The event whose processing dequeues ``s``: the get the module
        loop issues on finishing the previous row (event ``prev`` at
        ``free``) when ``s`` was queued by then, else the get ``s``'s
        own put fires."""
        if prev is not None and (put < free or put == free
                                 and self._key(s) < prev):
            return _Event(free, prev, 1)  # after the done event
        return _Event(put, self._key(s),
                      s - self._first(s) if s < self._n else 0)

    def _state(self, s) -> tuple:
        """The module's ``(free, draws)`` right after serving ``s``."""
        row = self._out[s]
        return float(row["completed"]), int(row["drawn"])

    def _next(self, m: int) -> tuple:
        """Module ``m``'s hazard ``(t, state)``: state 0, its next row
        takes the scalar path at dequeue instant ``t``; 1, it dequeues
        quiet and no row dequeues loud before the loud window starting
        at ``t``; 2, its queue is done (``t`` is inf)."""
        k, free, _ = self._job[m]
        if k == len(self._queue[m]):
            return _INF, 2
        put = float(self._qput[m][k])
        t = put if put > free else free
        lo, hi = self._loud[m]
        i = bisect_right(lo, t)
        if self._queue[m][k] >= self._n or (i and t < hi[i - 1]):
            return t, 0
        return (lo[i] if i < len(lo) else _INF), 1

    def _serve_loud(self) -> None:
        """Serve scalar rows in dequeue order across modules while the
        earliest is no later than every quiet module's hazard, so a
        failover lands behind the loud rows already served."""
        hazard = self._hazard
        while True:
            ready = [(t, m) for m, (t, state) in enumerate(hazard)
                     if state == 0]
            if not ready:
                return
            t, m = min(ready)
            if any(h[0] < t for h in hazard if h[1] == 1):
                return  # another module may still fail before t
            job = self._job[m]
            s = int(self._queue[m][job[0]])
            free, draws = self._serve(s, m, float(self._qput[m][job[0]]),
                                      job[1], job[2])
            job[:] = [job[0] + 1, free, draws]
            hazard[m] = self._next(m)

    def _serve_quiet(self, m: int) -> None:
        """Serve module ``m``'s next quiet run with the plain FCFS
        recurrence, row by row, up to the first dequeue instant at or
        after its next loud window or the first re-submission."""
        k, free, draws = self._job[m]
        end = self._hazard[m][0]
        puts = self._qput[m]
        j = k + int(np.searchsorted(puts[k:], end))
        ids = self._queue[m][k:j]
        rows, n = ids.tolist(), self._n
        began, done = [], []
        for s, put, svc in zip(rows, puts[k:j].tolist(),
                               self._svc[ids].tolist()):
            t = put if put > free else free  # dequeue instant
            if s >= n or t >= end:
                break
            free = t + svc
            began.append(t)
            done.append(free)
        acc = len(done)
        events = self._events  # keyed by the rows ``_serve`` served
        for s in [s for s in rows[:acc] if s in events]:
            del events[s]
            self._set_child(s, None)
        out, ids = self._out, ids[:acc]
        out[ids] = (0.0, 0.0, draws, 0, 0, 0)
        out["started"][ids] = began
        out["completed"][ids] = done
        self._job[m][:2] = [k + acc, free]
        self._hazard[m] = self._next(m)

    def _moved(self, m: int, p: int) -> None:
        """Module ``m``'s queue changed from position ``p`` on: rewind
        there if it served past, restoring ``free`` and draw counter."""
        job = self._job[m]
        if p < job[0]:
            job[:] = [p, *(self._state(self._queue[m][p - 1]) if p
                           else (0.0, 0))]
        ends = self._ends[m]
        for q in [q for q in ends if q >= p]:
            del ends[q]
        self._hazard[m] = self._next(m)

    def _serve(self, s: int, m: int, put: float, free: float,
               draws: int) -> tuple:
        """One dequeue on the scalar path; returns the module's
        ``(free, draws)`` after it."""
        started, t, draws, retries, reason, events, timeline = \
            self._attempts(s, m, put, free, draws)
        if reason:
            events.append("dead_module" if reason == _DEAD else "read_error")
        child = self._failover(s, m, put, free, t, events, timeline) \
            if reason else None
        flags = (FAULTED if events else 0) | (FAILED if reason else 0)
        self._out[s] = (started, t, draws, retries, flags | _SCALAR, reason)
        self._events[s] = events
        self._set_child(s, child)
        return t, draws

    def _attempts(self, s: int, m: int, put: float, free: float,
                  draws: int) -> tuple:
        """``s``'s service from its dequeue, a line-by-line mirror of
        :meth:`repro.flash.module.FlashModule._serve_faulty`: ``(started,
        completed, draws, retries, reason, events, timeline)``, where
        ``timeline`` lists the times of the events it schedules after
        the dequeue (down wait, attempts, backoffs)."""
        sched = self.schedule
        events: List[str] = []  # any fault event marks it faulted
        timeline: List[float] = []
        t = put if put > free else free  # dequeue instant
        started, retries, reason = np.nan, 0, 0
        available = _INF if sched.is_dead(m, t) \
            else sched.available_from(m, t)
        if available == _INF:
            reason = _DEAD  # dead, or the down window runs into a crash
        else:
            if available > t:
                events.append("down_wait")
                t = available
                timeline.append(t)
            started = t
            is_read = s >= self._n or not self._is_write[s]
            base = self._read_ms if is_read else self._write_ms
            while True:
                t0 = t
                service = base * sched.slowdown(m, t0)
                if service != base:
                    events.append("slow_service")
                t = t0 + service
                timeline.append(t)
                prob = sched.error_prob(m, t0) if is_read else 0.0
                if prob > 0.0:
                    draws += 1
                    if sched.read_error_draw(m, draws - 1) < prob:
                        events.append("read_error")
                        if retries >= self.retry.max_retries:
                            reason = _READ_ERROR
                            break
                        backoff = self.retry.delay(retries)
                        retries += 1
                        events.append("read_retry")
                        if backoff > 0:
                            t = t + backoff
                            timeline.append(t)
                        continue
                break
        return started, t, draws, retries, reason, events, timeline

    def _failover(self, s: int, m: int, put: float, free: float,
                  t: float, events: List[str],
                  timeline: List[float]) -> Optional[tuple]:
        """The re-submission of ``s`` on its next live untried replica,
        or ``None``, as ``OnlineStreamSession._issue_process`` fails
        over; write replicas and batch submissions (no candidates) stay
        failed, as in the DES drivers.  ``s`` was put at ``put`` on
        module ``m``, free at ``free``, and failed at ``t`` after the
        events of ``timeline`` (see :meth:`_attempts`)."""
        attempt, tried, cands = (0, (m,), self._candidates[s]) \
            if s < self._n else self._resub[s - self._n][4:]
        if cands is None:
            return None
        masked = self.schedule.masked_at(t)
        alive = [d for d in cands if d not in tried and d not in masked]
        if not alive or attempt >= self.retry.max_retries:
            events.append("unavailable")
            return None
        events.append("failover")
        # the failed attempt's done event, where the driver fails over
        p = self._job[m][0]
        ev = self._dequeue(s, put, self._end(m, p - 1)
                           if p and put <= free else None, free)
        for x in timeline:
            ev = _Event(x, ev, 0)
        ev = _Event(t, ev, 0)
        backoff = self.retry.delay(attempt)
        at = t
        if backoff > 0:
            at = t + backoff
            ev = _Event(at, ev, 0)  # the backoff timeout
        return (alive[0], at, t, ev, attempt + 1, tried + (alive[0],),
                cands)

    def _set_child(self, s: int, rec: Optional[tuple]) -> None:
        """Make ``rec`` the re-submission of ``s``: an unchanged one is
        kept, a changed one replaces (withdraws) the old."""
        old = self._child.pop(s, None)
        if old is not None:
            if rec is not None and self._resub[old - self._n][:4] == rec[:4]:
                self._child[s] = old
                return
            self._withdraw(old)
        if rec is None:
            return
        c = self._child[s] = self._n + len(self._resub)
        self._resub.append(rec)
        if c >= len(self._out):  # rows past the old end are unread
            self._out = np.resize(self._out, c + c // 4)
            self._svc = np.append(self._svc, np.full(
                len(self._out) - len(self._svc), self._read_ms))
        m, put, key = rec[0], rec[1], rec[3]
        ids, puts = self._queue[m], self._qput[m]
        p = bisect_left(ids, key, int(np.searchsorted(puts, put)),
                        int(np.searchsorted(puts, put, "right")),
                        key=self._key)
        self._queue[m] = np.insert(ids, p, c)
        self._qput[m] = np.insert(puts, p, put)
        self._moved(m, p)

    def _withdraw(self, c: int) -> None:
        """Drop re-submission ``c`` and its descendants."""
        m = self._resub[c - self._n][0]
        p = int(np.flatnonzero(self._queue[m] == c)[0])
        self._queue[m] = np.delete(self._queue[m], p)
        self._qput[m] = np.delete(self._qput[m], p)
        self._moved(m, p)
        self._events.pop(c, None)
        if c in self._child:
            self._withdraw(self._child.pop(c))

    # -- results ----------------------------------------------------------
    def _fill(self, log) -> None:
        """Every row's outcome into ``log``: reads from the last attempt
        of their failover chain, writes folded over their replicas
        (mirroring :meth:`~repro.flash.driver.OnlineStreamSession.\
_write_process`)."""
        n = self._n
        out = self._out[:n]
        rows = np.frombuffer(self._row, np.int64)
        enqueued, device = self._puts.copy(), self._modules.copy()
        for s in [s for s in self._child if s < n]:
            chain = [s]
            while chain[-1] in self._child:
                chain.append(self._child[chain[-1]])
            tries = self._out[chain]
            device[s], enqueued[s] = self._resub[chain[-1] - n][:2]
            began = tries["started"][~np.isnan(tries["started"])]
            out[s] = (began[-1] if began.size else np.nan,
                      tries[-1]["completed"], 0,
                      tries["retries"].sum() + len(chain) - 1,
                      FAULTED | tries[-1]["flags"], tries[-1]["reason"])
        read = ~self._is_write
        started = out["started"][read]
        log.fill(rows[read], {
            "issued": self._puts[read], "enqueued": enqueued[read],
            "started": np.where(np.isnan(started), 0.0, started),
            "completed": out["completed"][read], "device": device[read],
            "retries": out["retries"][read], "reason": out["reason"][read]},
            out["flags"][read] & (FAILED | FAULTED))
        if not self._write_first:
            return
        count = np.frombuffer(self._write_count, np.int64)
        replicas = out[self._is_write]
        at = np.cumsum(count) - count
        hit = (replicas["flags"] & (FAILED | FAULTED)) != 0
        lost = np.logical_and.reduceat((replicas["flags"] & FAILED) != 0, at)
        log.fill(rows[np.frombuffer(self._write_first, np.int64)], {
            "completed": np.maximum.reduceat(replicas["completed"], at),
            "retries": np.add.reduceat(replicas["retries"], at),
            "reason": np.where(lost, replicas["reason"][at], 0)},
            np.where(np.logical_or.reduceat(hit, at), FAULTED, 0)
            | np.where(lost, FAILED, 0))
