"""Faulted fast playback: replay module queues without the event loop.

Fault schedules are fully materialised before playback starts
(:mod:`repro.faults`), so nothing about a faulty run is *discovered*
during simulation: which requests a module fails, how long a down
window stalls service, which read attempts draw an error -- all of it
is a pure function of the schedule, the per-module attempt counters
and the submission order.  This module exploits that: it replays the
per-module FIFO queues directly (the Lindley recurrence, segmented at
fault boundaries) instead of stepping the DES, reproducing the event
loop's arithmetic operation-for-operation so the results are
byte-identical -- enforced by the ``faults`` determinism probe, the
golden snapshots and the fault-schedule hypothesis properties.

How the replay stays exact
--------------------------
* **Submission order.**  The driver phase (admission, placement, the
  busy-until mirror) is shared verbatim with the healthy fast path and
  is independent of fault outcomes -- the mirror is never updated from
  completions, so the set of (module, issue-time) submissions is the
  same whatever the faults do.  Submissions are then replayed in
  ``(put_time, creation_time, seq)`` order, which reproduces the DES
  event queue's ``(time, seq)`` tie-breaking for queue puts: a process
  created earlier schedules its wake-up earlier and therefore puts
  first at equal instants.
* **Service arithmetic.**  Per-request service mirrors
  :meth:`repro.flash.module.FlashModule._serve_faulty` literally:
  dead-at-dequeue checks, down-window waits via ``available_from``,
  per-attempt slowdown multiplication, counter-based read-error draws
  (consumed in the same per-module order) and retry backoff -- the
  same floats through the same operations.
* **Segmentation.**  Modules the schedule never touches cannot fail
  and feed nothing back into the replay (no failovers originate from
  them), so their submissions are deferred and evaluated in bulk with
  the vectorized Lindley recurrence
  (:func:`repro.flash.batch.stacked_fcfs_completion_times`); only
  fault-affected modules replay request-by-request.

Driver failover (the online driver's retry on the next live replica)
is emulated by re-submitting the failed request with the schedule's
backoff; its creation time -- the failing attempt's completion -- puts
the re-issue exactly where the DES event queue would.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

import numpy as np

from repro import obs

__all__ = ["FaultedReplay"]

_INF = float("inf")


class _Submission:
    """One entry in a module's replayed FIFO queue."""

    __slots__ = ("io", "module", "put", "created", "seq", "candidates",
                 "tried", "attempt", "first_issue", "write")

    def __init__(self, io, module, put, created, seq,
                 candidates=None, first_issue=0.0, write=None):
        self.io = io
        self.module = module
        #: queue-put instant (the issue time)
        self.put = put
        #: when the issuing process was created; breaks put-time ties
        #: the way DES event sequence numbers do
        self.created = created
        self.seq = seq
        #: replica candidates for driver failover (``None``: the batch
        #: driver, which never fails over)
        self.candidates = candidates
        self.tried = [module]
        #: driver-level failover attempts consumed
        self.attempt = 0
        self.first_issue = first_issue
        #: the write master this replica belongs to (``None`` = read)
        self.write = write


class _WriteMaster:
    """A logical write fanned out to its replicas."""

    __slots__ = ("master", "replicas")

    def __init__(self, master):
        self.master = master
        self.replicas: List = []


class FaultedReplay:
    """Replay one play-through's module queues under a fault schedule.

    The driver submits reads and writes as it places them (through the
    shared admission/placement loop); :meth:`run` then fills in every
    ``IORequest``'s timestamps, fault flags and retry counts exactly
    as the DES module service loops would have.

    Parameters
    ----------
    schedule:
        The materialised :class:`repro.faults.FaultSchedule`.
    n_modules:
        Array width.
    params:
        :class:`repro.flash.params.FlashParams` timing constants.
    """

    def __init__(self, schedule, n_modules: int, params):
        self.schedule = schedule
        self.params = params
        self.retry = schedule.retry
        #: modules with no fault events: they can never fail a request,
        #: so nothing they serve feeds back into the replay
        self._quiet = [not schedule.events_for(m)
                       for m in range(n_modules)]
        self._free = [0.0] * n_modules
        #: per-module monotone read-attempt counters (error-draw index),
        #: mirroring :class:`repro.faults.view.ModuleFaultView`
        self._draws = [0] * n_modules
        self._deferred: List[List[_Submission]] = \
            [[] for _ in range(n_modules)]
        self._writes: List[_WriteMaster] = []
        self._heap: list = []
        self._seq = 0

    # -- driver-side API --------------------------------------------------
    def submit_read(self, io, module: int, issue_at: float,
                    created: float,
                    candidates: Optional[Sequence[int]] = None) -> None:
        """Record one read placed on ``module`` at ``issue_at``.

        ``created`` is the dispatch instant (when the DES would have
        created the issuing process); ``candidates`` enables driver
        failover across the request's untried live replicas.
        """
        self._push(_Submission(io, module, issue_at, created,
                               self._seq, candidates, issue_at))
        self._seq += 1

    def submit_write(self, master, devices: Sequence[int],
                     issue_at: float, created: float) -> None:
        """Record one write applied to every device in ``devices``."""
        from repro.flash.array import IORequest

        wm = _WriteMaster(master)
        for d in devices:
            replica = IORequest(arrival=master.arrival,
                                bucket=master.bucket, is_read=False)
            wm.replicas.append(replica)
            self._push(_Submission(replica, d, issue_at, created,
                                   self._seq, first_issue=issue_at,
                                   write=wm))
            self._seq += 1
        self._writes.append(wm)

    def _push(self, sub: _Submission) -> None:
        # Driver-phase submissions accumulate unordered; run() heapifies
        # the whole batch in one O(n) pass.  (put, created, seq) is a
        # total order -- seq is unique -- so the pop sequence is the
        # same as under per-submission heappush.
        self._heap.append((sub.put, sub.created, sub.seq, sub))

    # -- replay -----------------------------------------------------------
    def run(self) -> None:
        """Serve every submission; fills the IORequests in place."""
        heap = self._heap
        heapq.heapify(heap)
        quiet = self._quiet
        deferred = self._deferred
        while heap:
            sub = heapq.heappop(heap)[3]
            if quiet[sub.module]:
                # Heap order per module is FIFO order, so deferring in
                # pop order preserves the queue.
                deferred[sub.module].append(sub)
                continue
            self._serve(sub)
        self._flush_quiet()
        self._finalize_writes()

    def _serve(self, sub: _Submission) -> None:
        """One dequeued request on a fault-affected module.

        A line-by-line mirror of
        :meth:`repro.flash.module.FlashModule._serve_faulty` (same
        floats, same operations, same obs counters).
        """
        io = sub.io
        m = sub.module
        sched = self.schedule
        io.device = m
        io.enqueued_at = sub.put
        io.issued_at = sub.first_issue
        free = self._free[m]
        t = sub.put if sub.put > free else free  # dequeue instant
        if sched.is_dead(m, t):
            self._fail(io, "dead", t)
            self._free[m] = t
            self._after_failure(sub, t)
            return
        available = sched.available_from(m, t)
        if available == _INF:
            # The down window runs straight into a crash.
            self._fail(io, "dead", t)
            self._free[m] = t
            self._after_failure(sub, t)
            return
        if available > t:
            io.faulted = True
            if obs.ACTIVE:
                obs.SESSION.on_fault("down_wait")
            t = available
        io.started_at = t
        base = self.params.service_ms(io.is_read, io.n_blocks)
        retry = self.retry
        attempt = 0
        while True:
            t0 = t
            service = base * sched.slowdown(m, t0)
            if service != base:
                io.faulted = True
                if obs.ACTIVE:
                    obs.SESSION.on_fault("slow_service")
            t = t0 + service
            prob = sched.error_prob(m, t0) if io.is_read else 0.0
            if prob > 0.0 and self._draw(m) < prob:
                io.faulted = True
                if obs.ACTIVE:
                    obs.SESSION.on_fault("read_error")
                if attempt >= retry.max_retries:
                    self._fail(io, "read_error", t)
                    self._free[m] = t
                    self._after_failure(sub, t)
                    return
                backoff = retry.delay(attempt)
                attempt += 1
                io.retries += 1
                if obs.ACTIVE:
                    obs.SESSION.on_fault("read_retry")
                if backoff > 0:
                    t = t + backoff
                continue
            break
        io.completed_at = t
        self._free[m] = t

    def _draw(self, m: int) -> float:
        i = self._draws[m]
        self._draws[m] = i + 1
        return self.schedule.read_error_draw(m, i)

    @staticmethod
    def _fail(io, reason: str, t: float) -> None:
        io.failed = True
        io.fail_reason = reason
        io.faulted = True
        io.completed_at = t
        if obs.ACTIVE:
            obs.SESSION.on_fault(
                "dead_module" if reason == "dead" else reason)

    def _after_failure(self, sub: _Submission, t: float) -> None:
        """Driver failover: re-submit on the next live untried replica.

        Mirrors :meth:`repro.flash.driver.OnlineStreamSession._issue_process`;
        write replicas and batch submissions (``candidates is None``)
        stay failed -- the DES drivers never fail those over either.
        """
        if sub.write is not None or sub.candidates is None:
            return
        io = sub.io
        masked = self.schedule.masked_at(t)
        alive = [d for d in sub.candidates
                 if d not in sub.tried and d not in masked]
        if not alive or sub.attempt >= self.retry.max_retries:
            if obs.ACTIVE:
                obs.SESSION.on_fault("unavailable")
            return
        nxt = alive[0]
        if obs.ACTIVE:
            obs.SESSION.on_fault("failover")
        backoff = self.retry.delay(sub.attempt)
        sub.attempt += 1
        io.retries += 1
        io.failed = False
        io.fail_reason = ""
        io.faulted = True
        sub.tried.append(nxt)
        sub.module = nxt
        sub.created = t
        sub.put = t + backoff if backoff > 0 else t
        sub.seq = self._seq
        self._seq += 1
        # Mid-run resubmission: the heap is live, push for real.
        heapq.heappush(self._heap,
                       (sub.put, sub.created, sub.seq, sub))

    # -- bulk phases ------------------------------------------------------
    def _flush_quiet(self) -> None:
        """Vectorized Lindley evaluation of every quiet module's queue.

        Quiet modules run the *healthy* service loop in the DES too
        (:class:`~repro.flash.module.FlashModule` drops quiet views),
        so their completions are exactly the FCFS recurrence; they are
        also never a failure source, so evaluating them after the
        scalar phase cannot change any failover decision.
        """
        streams = [(m, subs) for m, subs in enumerate(self._deferred)
                   if subs]
        if not streams:
            return
        from repro.flash.batch import stacked_fcfs_completion_times

        params = self.params
        # One stacked Lindley evaluation over every quiet module's
        # queue (per-stream bit-identical to the scalar recurrence).
        flat = [s for _, subs in streams for s in subs]
        puts = np.array([s.put for s in flat], dtype=np.float64)
        svc = np.array([params.service_ms(s.io.is_read, s.io.n_blocks)
                        for s in flat], dtype=np.float64)
        offsets = np.zeros(len(streams) + 1, dtype=np.intp)
        np.cumsum([len(subs) for _, subs in streams],
                  out=offsets[1:])
        comp = stacked_fcfs_completion_times(puts, offsets, svc)
        started = np.empty_like(comp)
        started[1:] = np.maximum(puts[1:], comp[:-1])
        started[offsets[:-1]] = np.maximum(puts[offsets[:-1]], 0.0)
        for (m, subs), a in zip(streams, offsets[:-1]):
            for i, s in enumerate(subs):
                io = s.io
                io.device = m
                io.enqueued_at = s.put
                io.issued_at = s.first_issue
                io.started_at = float(started[a + i])
                io.completed_at = float(comp[a + i])

    def _finalize_writes(self) -> None:
        """Fold replica outcomes into each write master, mirroring
        :meth:`~repro.flash.driver.OnlineStreamSession._write_process`."""
        for wm in self._writes:
            master = wm.master
            replicas = wm.replicas
            completed = replicas[0].completed_at
            for r in replicas[1:]:
                if r.completed_at > completed:
                    completed = r.completed_at
            master.completed_at = completed
            if any(r.failed or r.faulted for r in replicas):
                master.faulted = True
                master.retries = sum(r.retries for r in replicas)
            if all(r.failed for r in replicas):
                master.failed = True
                master.fail_reason = replicas[0].fail_reason
