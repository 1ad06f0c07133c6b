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
from repro.flash.played import FAILED, FAULTED, reason_code

__all__ = ["FaultedReplay"]

_INF = float("inf")


class _Submission:
    """One entry in a module's replayed FIFO queue, and the service
    outcome of its request (the ``IORequest`` fields the DES module
    and driver would have set)."""

    __slots__ = ("row", "is_read", "module", "put", "created", "seq",
                 "candidates", "tried", "attempt", "first_issue",
                 "write", "device", "enqueued", "started", "completed",
                 "failed", "reason", "faulted", "retries")

    def __init__(self, row, is_read, module, put, created, seq,
                 candidates=None, first_issue=0.0, write=None):
        #: the played-table row of a read (``-1`` for a write replica)
        self.row = row
        self.is_read = is_read
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
        self.device = -1
        self.enqueued = 0.0
        self.started = 0.0
        self.completed = 0.0
        self.failed = False
        self.reason = ""
        self.faulted = False
        #: read-error retries plus driver-level failovers consumed
        self.retries = 0


class _WriteMaster:
    """A logical write fanned out to its replicas."""

    __slots__ = ("row", "replicas")

    def __init__(self, row: int):
        self.row = row
        self.replicas: List[_Submission] = []


class FaultedReplay:
    """Replay one play-through's module queues under a fault schedule.

    The driver submits reads and writes as it places them (through the
    shared admission/placement loop), naming the played-table row each
    one was logged at; :meth:`run` then writes every row's timestamps,
    fault flags and retry counts exactly as the DES module service
    loops would have set them.

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
        self._reads: List[_Submission] = []
        self._writes: List[_WriteMaster] = []
        self._heap: list = []
        self._seq = 0

    # -- driver-side API --------------------------------------------------
    def submit_read(self, row: int, module: int, issue_at: float,
                    created: float,
                    candidates: Optional[Sequence[int]] = None) -> None:
        """Record the read logged at ``row``, placed on ``module`` at
        ``issue_at``.

        ``created`` is the dispatch instant (when the DES would have
        created the issuing process); ``candidates`` enables driver
        failover across the request's untried live replicas.
        """
        sub = _Submission(row, True, module, issue_at, created,
                          self._seq, candidates, issue_at)
        self._reads.append(sub)
        self._push(sub)
        self._seq += 1

    def submit_write(self, row: int, devices: Sequence[int],
                     issue_at: float, created: float) -> None:
        """Record the write logged at ``row``, applied to every device
        in ``devices``."""
        wm = _WriteMaster(row)
        for d in devices:
            replica = _Submission(-1, False, d, issue_at, created,
                                  self._seq, first_issue=issue_at,
                                  write=wm)
            wm.replicas.append(replica)
            self._push(replica)
            self._seq += 1
        self._writes.append(wm)

    def _push(self, sub: _Submission) -> None:
        # Driver-phase submissions accumulate unordered; run() heapifies
        # the whole batch in one O(n) pass.  (put, created, seq) is a
        # total order -- seq is unique -- so the pop sequence is the
        # same as under per-submission heappush.
        self._heap.append((sub.put, sub.created, sub.seq, sub))

    # -- replay -----------------------------------------------------------
    def run(self, log) -> None:
        """Serve every submission; writes the outcomes into ``log``'s
        rows (a :class:`repro.flash.played.PlayedLog`)."""
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
        self._write_reads(log)
        self._finalize_writes(log)

    def _serve(self, sub: _Submission) -> None:
        """One dequeued request on a fault-affected module.

        A line-by-line mirror of
        :meth:`repro.flash.module.FlashModule._serve_faulty` (same
        floats, same operations, same obs counters).
        """
        m = sub.module
        sched = self.schedule
        sub.device = m
        sub.enqueued = sub.put
        free = self._free[m]
        t = sub.put if sub.put > free else free  # dequeue instant
        if sched.is_dead(m, t):
            self._fail(sub, "dead", t)
            self._free[m] = t
            self._after_failure(sub, t)
            return
        available = sched.available_from(m, t)
        if available == _INF:
            # The down window runs straight into a crash.
            self._fail(sub, "dead", t)
            self._free[m] = t
            self._after_failure(sub, t)
            return
        if available > t:
            sub.faulted = True
            if obs.ACTIVE:
                obs.SESSION.on_fault("down_wait")
            t = available
        sub.started = t
        base = self.params.service_ms(sub.is_read)
        retry = self.retry
        attempt = 0
        while True:
            t0 = t
            service = base * sched.slowdown(m, t0)
            if service != base:
                sub.faulted = True
                if obs.ACTIVE:
                    obs.SESSION.on_fault("slow_service")
            t = t0 + service
            prob = sched.error_prob(m, t0) if sub.is_read else 0.0
            if prob > 0.0 and self._draw(m) < prob:
                sub.faulted = True
                if obs.ACTIVE:
                    obs.SESSION.on_fault("read_error")
                if attempt >= retry.max_retries:
                    self._fail(sub, "read_error", t)
                    self._free[m] = t
                    self._after_failure(sub, t)
                    return
                backoff = retry.delay(attempt)
                attempt += 1
                sub.retries += 1
                if obs.ACTIVE:
                    obs.SESSION.on_fault("read_retry")
                if backoff > 0:
                    t = t + backoff
                continue
            break
        sub.completed = t
        self._free[m] = t

    def _draw(self, m: int) -> float:
        i = self._draws[m]
        self._draws[m] = i + 1
        return self.schedule.read_error_draw(m, i)

    @staticmethod
    def _fail(sub: _Submission, reason: str, t: float) -> None:
        sub.failed = True
        sub.reason = reason
        sub.faulted = True
        sub.completed = t
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
        sub.retries += 1
        sub.failed = False
        sub.reason = ""
        sub.faulted = True
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

        read_ms = self.params.service_ms(True)
        write_ms = self.params.service_ms(False)
        # One stacked Lindley evaluation over every quiet module's
        # queue (per-stream bit-identical to the scalar recurrence).
        flat = [s for _, subs in streams for s in subs]
        puts = np.array([s.put for s in flat], dtype=np.float64)
        svc = np.array([read_ms if s.is_read else write_ms
                        for s in flat], dtype=np.float64)
        offsets = np.zeros(len(streams) + 1, dtype=np.intp)
        np.cumsum([len(subs) for _, subs in streams],
                  out=offsets[1:])
        comp = stacked_fcfs_completion_times(puts, offsets, svc)
        started = np.empty_like(comp)
        started[1:] = np.maximum(puts[1:], comp[:-1])
        started[offsets[:-1]] = np.maximum(puts[offsets[:-1]], 0.0)
        for (m, subs), a in zip(streams, offsets[:-1]):
            for s, t_start, t_done in zip(
                    subs, started[a:a + len(subs)].tolist(),
                    comp[a:a + len(subs)].tolist()):
                s.device = m
                s.enqueued = s.put
                s.started = t_start
                s.completed = t_done

    def _write_reads(self, log) -> None:
        """Every read's outcome into its row, in one bulk write."""
        reads = self._reads
        if not reads:
            return
        n = len(reads)
        rows = np.fromiter((s.row for s in reads), np.int64, n)
        log.fill(rows, {
            "issued": np.fromiter((s.first_issue for s in reads),
                                  np.float64, n),
            "enqueued": np.fromiter((s.enqueued for s in reads),
                                    np.float64, n),
            "started": np.fromiter((s.started for s in reads),
                                   np.float64, n),
            "completed": np.fromiter((s.completed for s in reads),
                                     np.float64, n),
            "device": np.fromiter((s.device for s in reads), np.int32, n),
            "retries": np.fromiter((s.retries for s in reads),
                                   np.int32, n),
            "reason": np.fromiter((reason_code(s.reason) for s in reads),
                                  np.uint8, n),
        }, np.fromiter(((FAILED if s.failed else 0)
                        | (FAULTED if s.faulted else 0) for s in reads),
                       np.uint8, n))

    def _finalize_writes(self, log) -> None:
        """Fold replica outcomes into each write master's row,
        mirroring :meth:`~repro.flash.driver.OnlineStreamSession.\
_write_process`."""
        if not self._writes:
            return
        rows, completed, retries, flags, reasons = [], [], [], [], []
        for wm in self._writes:
            replicas = wm.replicas
            done = replicas[0].completed
            for r in replicas[1:]:
                if r.completed > done:
                    done = r.completed
            flag = 0
            n_retries = 0
            reason = ""
            if any(r.failed or r.faulted for r in replicas):
                flag = FAULTED
                n_retries = sum(r.retries for r in replicas)
            if all(r.failed for r in replicas):
                flag |= FAILED
                reason = replicas[0].reason
            rows.append(wm.row)
            completed.append(done)
            retries.append(n_retries)
            flags.append(flag)
            reasons.append(reason_code(reason))
        log.fill(np.array(rows, dtype=np.int64),
                 {"completed": completed, "retries": retries,
                  "reason": reasons}, flags)
