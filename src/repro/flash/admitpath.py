"""Vectorized admission kernel: whole-chunk QoS admission in one pass.

The online driver's per-request loop -- heap pop, interval roll,
``DeterministicAdmission.offer``, dispatch -- is the identity contract
shared by the DES and the fast engine, and it dominates faulted-sweep
wall time.  For the paper's *counting* controller (§III-A1: admit at
most ``S = (c-1)M² + cM`` requests per interval, ε = 0) the loop is a
segmented recurrence that vectorizes exactly:

1.  **Interval assignment.**  Pending arrivals, stable-sorted by
    timestamp (stability reproduces the heap's sequence-number
    tie-breaking), map to QoS intervals with the driver's own formula
    ``k = int(t / T + 1e-9)`` -- elementwise, so the floats agree
    bit-for-bit with the scalar ``interval_of``.
2.  **Segmented units vs the cap.**  A read costs one budget unit and
    a write ``c`` (it lands on every replica), and the controller
    admits a request while ``count + cost <= S``.  The running units
    within each interval run are a segmented cumulative sum of the
    cost column, resumed from ``count₀``, the units an
    :meth:`advance` cut left in the live interval.  An interval whose
    running units never pass ``S`` admits everything, so *congested*
    intervals are located in one vector comparison; spans of
    uncongested intervals are emitted wholesale at their own arrival
    times.  Each congested interval applies the greedy rule once, in
    vector form (:func:`_greedy_admit`): requests admit up to the
    first that does not fit, after which every write is denied and
    the next reads fill whatever room is left -- so admission is not
    a prefix, and a denied write can be followed by admitted reads.
    Only congested intervals and delayed-spill chains run the
    per-interval (never per-request) Python loop.
3.  **Spill to the next interval.**  Denied requests under the paper's
    ``delay`` policy re-enter at ``(k+1)·T`` *behind* boundary-
    coincident arrivals (the heap orders origin-0 arrivals before
    origin-1 re-queues at equal timestamps); the kernel keeps them as
    an explicit carry queue merged at the boundary with
    ``searchsorted``.  Under ``reject`` they are emitted as rejected
    playback entries *before* the batch's admitted ones, exactly as
    the scalar loop appends them.
4.  **Post-hoc verification + scalar fallback.**  The scalar loop
    batches wake-ups with a ``1e-12`` tolerance and anchors each
    batch at the earliest member's timestamp.  The kernel groups by
    exact time equality instead, which is identical *unless* two
    distinct processed timestamps sit within ``1e-12`` of each other
    (then the scalar batch would absorb the later one at the earlier
    anchor).  The kernel checks this boundary condition up front --
    one ``diff`` over the processed slice plus the carry instant and
    the first deferred entry -- and again at each spill boundary it
    creates (``(k+1)·T`` may round to within ``1e-12`` of a distinct
    arrival), and raises :class:`DemotionRequired`
    when the trace is too finely spaced, letting the session rebuild
    its heap and fall back to the scalar loop mid-stream.  The same
    escape covers out-of-order feeds.

Statistical admission (ε > 0) keeps the scalar loop (see
:func:`supports_vector_admission`); its inner arithmetic is
accelerated separately
(:class:`repro.core.admission.StatisticalAdmission`'s vectorized ``Q``
histogram).

Everything here is decision *classification* only -- placement,
busy-until arithmetic, faulted replay submission and played-request
bookkeeping stay in :class:`repro.flash.driver.OnlineStreamSession`,
which consumes the emitted :class:`AdmissionPlan` batch by batch.
The scalar loop stays the reference.  There is no switch for it: a
session reaches it by demoting before its first feed
(``session._demote("reference")``), the same exact hand-over a
mid-stream demotion makes.  Byte-identity with it is enforced by the
``admission`` determinism probe (``python -m repro.check --probe
admission``), the hypothesis properties in
``tests/properties/test_property_admitpath.py`` and the
``rows_identical`` assertion in ``tools/bench_runner.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "AdmissionPlan", "DemotionRequired", "VectorAdmissionWindow",
    "supports_vector_admission",
]

#: The driver's wake-up batching tolerance (``process_now`` pops every
#: heap entry within this of the batch anchor).
_BATCH_TOL = 1e-12


def supports_vector_admission(epsilon: float) -> Tuple[bool, str]:
    """Static eligibility of a player configuration; ``(ok, reason)``.

    The kernel implements exactly the deterministic ``S``-cap
    controller.  Statistical admission interrogates the evolving
    interval-size histogram per overflow decision, which is
    sequential, so it keeps the scalar loop and the returned reason
    (``"statistical"``) names why (mirroring
    :func:`repro.flash.driver.select_engine`).
    """
    if epsilon > 0:
        return False, "statistical"
    return True, ""


class DemotionRequired(Exception):
    """The kernel cannot guarantee byte-identity; use the scalar loop.

    Raised *before* any state is mutated, so the session can rebuild
    its pending heap from :meth:`VectorAdmissionWindow.export_state`
    and continue scalar mid-stream without replaying anything.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class AdmissionPlan:
    """One ``take()``'s admission decisions, in playback order.

    Aligned arrays, one entry per processed request, ordered exactly
    as the scalar loop would append them to ``session.played``
    (within a batch: rejected entries first, then admitted in
    processing order).  ``starts[i]`` opens a new simultaneous batch
    (the scalar ``process_now`` wake-up); delayed requests are not
    emitted -- they re-enter a later plan at the next boundary.
    """

    #: session column index of each processed request
    order: np.ndarray
    #: processing instant (the scalar batch anchor)
    times: np.ndarray
    #: QoS interval of each decision
    intervals: np.ndarray
    #: False marks a rejected entry (``overflow="reject"`` only)
    admitted: np.ndarray
    #: True where a new simultaneous batch begins
    starts: np.ndarray
    #: requests admitted / rejected / delayed-to-next-interval
    n_admitted: int = 0
    n_rejected: int = 0
    n_delayed: int = 0

    def __len__(self) -> int:
        return int(self.order.size)


_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)


def _greedy_admit(costs: np.ndarray, count0: int,
                  limit: int) -> Tuple[int, Optional[np.ndarray], int]:
    """The scalar ``count + cost <= S`` rule over one interval's
    requests in processing order, without a per-request loop.

    Returns ``(first, later, units)``: the first ``first`` requests
    are admitted, ``later`` holds the positions of any admitted after
    the first denial (``None`` when there are none), and ``units`` is
    the budget they consume.  Costs are 1 (a read) or ``c`` (a
    write), which makes the greedy rule two-phase: requests admit
    until the first one that does not fit; the room left is then
    below that request's cost, hence below ``c`` if it was a write and
    0 if it was a read, so every later write is denied and the first
    ``room`` later reads still fit.
    """
    n = int(costs.size)
    # Every cost is at least 1 and count0 <= limit, so the first
    # denial falls within the first limit - count0 + 1 requests: a
    # long delayed carry need not be summed.
    units = count0 + np.cumsum(costs[:limit - count0 + 1])
    first = int(np.searchsorted(units, limit, side="right"))
    if first == n:
        return n, None, int(units[-1]) - count0
    used = int(units[first] - costs[first])
    room = limit - used
    if room:
        later = np.flatnonzero(costs[first + 1:] == 1)[:room] + first + 1
        if later.size:
            return first, later, used + int(later.size) - count0
    return first, None, used - count0


class VectorAdmissionWindow:
    """Streaming counting-admission classifier for one session.

    Owns the vector-mode equivalents of the session's pending heap and
    :class:`~repro.core.admission.DeterministicAdmission` counter:
    unprocessed arrivals (kept sorted by arrival time), the current
    interval and its admitted count, and the delayed-spill carry
    queue.  :meth:`take` classifies everything processable before a
    cut and returns an :class:`AdmissionPlan`; the state left behind
    makes the next ``take`` resume exactly where the scalar loop
    would.
    """

    def __init__(self, interval_ms: float, limit: int, overflow: str):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if limit < 1:
            raise ValueError("admission limit must be >= 1")
        if overflow not in ("delay", "reject"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.interval_ms = float(interval_ms)
        self.limit = int(limit)
        self.overflow = overflow
        #: sorted unprocessed arrivals + chunks not yet merged in
        self._t = _EMPTY_F8
        self._i = _EMPTY_I8
        self._chunks_t: List[np.ndarray] = []
        self._chunks_i: List[np.ndarray] = []
        #: budget units per pending request (1 read, ``c`` write),
        #: aligned with ``_t`` / ``_chunks_t`` / ``_carry``
        self._c = _EMPTY_I8
        self._chunks_c: List[np.ndarray] = []
        self._carry_c = _EMPTY_I8
        #: delayed-spill queue: session indices due at ``_carry_time``
        #: (always the start boundary of interval ``_carry_interval``)
        self._carry = _EMPTY_I8
        self._carry_time = 0.0
        self._carry_interval = -1
        #: last interval whose admissions started, and its count --
        #: the vector image of ``session._current_interval`` plus
        #: ``DeterministicAdmission._count``
        self._interval = -1
        self._count = 0

    # -- feeding -----------------------------------------------------------
    @property
    def n_pending(self) -> int:
        """Arrivals (or spilled re-queues) awaiting processing."""
        n = int(self._t.size) + int(self._carry.size)
        for chunk in self._chunks_t:
            n += int(chunk.size)
        return n

    def feed(self, times: np.ndarray, indices: np.ndarray,
             costs: Optional[np.ndarray] = None) -> None:
        """Append one chunk of arrivals (session column indices).

        ``costs`` are the budget units each request takes when
        admitted: 1 for a read (the default, for a chunk of reads
        only), the replication degree ``c`` for a write.
        """
        self._chunks_c.append(
            np.ones(len(times), dtype=np.int64) if costs is None
            else np.ascontiguousarray(costs, dtype=np.int64))
        self._chunks_t.append(np.ascontiguousarray(times,
                                                   dtype=np.float64))
        self._chunks_i.append(np.ascontiguousarray(indices,
                                                   dtype=np.int64))

    def _consolidate(self) -> None:
        """Merge fed chunks into the sorted pending arrays.

        A *stable* sort over (previous leftovers, chunks in feed
        order) reproduces the scalar heap's tie order: at equal
        timestamps earlier-fed arrivals (smaller sequence numbers)
        come first, exactly like the ``(t, 0, seq)`` heap entries.
        """
        if not self._chunks_t:
            return
        t = np.concatenate([self._t] + self._chunks_t)
        i = np.concatenate([self._i] + self._chunks_i)
        c = np.concatenate([self._c] + self._chunks_c)
        self._chunks_t = []
        self._chunks_i = []
        self._chunks_c = []
        order = np.argsort(t, kind="stable")
        self._t = t[order]
        self._i = i[order]
        self._c = c[order]

    # -- state export (for demotion) ---------------------------------------
    def export_state(self) -> dict:
        """Everything the scalar loop needs to take over mid-stream."""
        self._consolidate()
        return {
            "times": self._t,
            "indices": self._i,
            "carry": self._carry,
            "carry_time": self._carry_time,
            "interval": self._interval,
            "count": self._count,
        }

    # -- classification ----------------------------------------------------
    def take(self, until: Optional[float] = None,
             ) -> Optional[AdmissionPlan]:
        """Classify everything due strictly before ``until``.

        ``None`` drains the window.  Returns ``None`` when nothing is
        processable; raises :class:`DemotionRequired` (with the window
        untouched) when exactness cannot be guaranteed.
        """
        self._consolidate()
        t_all = self._t
        i_all = self._i
        T = self.interval_ms
        S = self.limit
        cut = np.inf if until is None else float(until) - _BATCH_TOL
        m = int(np.searchsorted(t_all, cut, side="left"))
        has_carry = self._carry.size > 0
        carry_due = has_carry and self._carry_time < cut
        if m == 0 and not carry_due:
            return None

        # Post-hoc boundary verification, up front: if any two
        # *distinct* relevant instants are within the scalar batching
        # tolerance, exact-equality grouping would diverge from the
        # scalar batch anchoring -- fall back.  "Relevant" = every
        # processed timestamp, the carry instant, and the first entry
        # beyond the cut (a batch anchored just below the cut would
        # absorb it).
        guard = t_all[:min(m + 1, int(t_all.size))]
        if has_carry:
            guard = np.sort(np.append(guard, self._carry_time),
                            kind="stable")
        if guard.size > 1:
            gaps = np.diff(guard)
            if bool(np.any((gaps > 0.0) & (gaps <= _BATCH_TOL))):
                raise DemotionRequired("time_resolution")

        t = t_all[:m]
        idx = i_all[:m]
        cost = self._c[:m]
        # The driver's own interval formula, elementwise: for t >= 0
        # int() truncation == floor == the int64 cast.
        k_arr = (t / T + 1e-9).astype(np.int64)
        if m and int(k_arr[0]) < self._interval:
            # A feed landed behind an interval the scalar loop would
            # have kept counting in without rolling the window -- the
            # heap handles that naturally, the kernel does not.
            raise DemotionRequired("out_of_order")

        # Segmented cumulative cost within each interval run (offset
        # trick): an interval whose running units never exceed S admits
        # everything, so positions with units > S mark congested
        # intervals.  The first (possibly resumed) interval starts from
        # the carried-over count.
        if m:
            new_run = np.empty(m, dtype=bool)
            new_run[0] = True
            np.not_equal(k_arr[1:], k_arr[:-1], out=new_run[1:])
            run_ids = np.cumsum(new_run) - 1
            run_starts = np.flatnonzero(new_run)
            start_of = run_starts[run_ids]
            units = np.cumsum(cost)
            units -= (units - cost)[start_of]
            if int(k_arr[0]) == self._interval and self._count:
                first_end = int(run_starts[1]) if run_starts.size > 1 \
                    else m
                units[:first_end] += self._count
            congested = np.flatnonzero(units > S)
        else:
            start_of = _EMPTY_I8
            units = _EMPTY_I8
            congested = _EMPTY_I8

        out_i: List[np.ndarray] = []
        out_t: List[np.ndarray] = []
        out_k: List[np.ndarray] = []
        out_a: List[np.ndarray] = []
        state0 = (self._interval, self._count)
        # spill boundaries created by this take (checked at the end)
        new_carry_times: List[float] = []
        n_admitted = 0
        n_rejected = 0
        n_delayed = 0
        delay = self.overflow == "delay"
        carry = self._carry
        carry_c = self._carry_c
        carry_t = self._carry_time
        carry_k = self._carry_interval
        pos = 0

        while True:
            if not carry.size and pos < m:
                # Bulk emission: every interval run up to the next
                # congested one admits everything at its own arrival
                # time -- no per-interval work at all.
                j = int(np.searchsorted(congested, pos, side="left"))
                bulk_end = int(start_of[congested[j]]) \
                    if j < congested.size else m
                if bulk_end > pos:
                    out_i.append(idx[pos:bulk_end])
                    out_t.append(t[pos:bulk_end])
                    out_k.append(k_arr[pos:bulk_end])
                    out_a.append(np.ones(bulk_end - pos, dtype=bool))
                    n_admitted += bulk_end - pos
                    self._interval = int(k_arr[bulk_end - 1])
                    self._count = int(units[bulk_end - 1])
                    pos = bulk_end
                    continue

            # One congested-or-carry interval step.
            if carry.size and (pos >= m or carry_k <= int(k_arr[pos])):
                k = carry_k
                if not carry_t < cut:
                    # The carry is not due yet.  Arrivals that ARE due
                    # but sort at or before the carry instant sit in
                    # the sub-tolerance band below the boundary;
                    # deferring them to the next take() processes them
                    # with identical admission state, so the final
                    # played log is unchanged.
                    break
                hi = pos + int(np.searchsorted(k_arr[pos:m], k,
                                               side="right"))
                seg_t = t[pos:hi]
                n_pre = int(np.searchsorted(seg_t, carry_t,
                                            side="right"))
                mid = pos + n_pre
                ord_i = np.concatenate((idx[pos:mid], carry, idx[mid:hi]))
                ord_c = np.concatenate((cost[pos:mid], carry_c,
                                        cost[mid:hi]))
                ord_t = np.concatenate((
                    seg_t[:n_pre],
                    np.full(carry.size, carry_t, dtype=np.float64),
                    seg_t[n_pre:]))
                carry_len = int(carry.size)
            elif pos < m:
                k = int(k_arr[pos])
                hi = pos + int(np.searchsorted(k_arr[pos:m], k,
                                               side="right"))
                ord_i = idx[pos:hi]
                ord_c = cost[pos:hi]
                ord_t = t[pos:hi]
                carry_len = 0
            else:
                break

            cpos = int(np.searchsorted(ord_t, cut, side="left"))
            if cpos == 0:
                break
            count0 = self._count if k == self._interval else 0
            proc_i = ord_i[:cpos]
            proc_t = ord_t[:cpos]
            proc_c = ord_c[:cpos]
            first, later, used = _greedy_admit(proc_c, count0, S)
            if later is None:
                adm = slice(0, first)
                den = slice(first, cpos)
                adm_n = first
            else:
                adm = np.zeros(cpos, dtype=bool)
                adm[:first] = True
                adm[later] = True
                den = ~adm
                adm_n = first + int(later.size)
            self._interval = k
            self._count = count0 + used
            if carry_len:
                # carry_t < cut, so the whole carry fell inside cpos.
                pos += cpos - carry_len
                carry = _EMPTY_I8
                carry_c = _EMPTY_I8
            else:
                pos += cpos
            denied = cpos - adm_n
            if denied and delay:
                n_delayed += denied
                spill = proc_i[den].copy()
                spill_c = proc_c[den].copy()
                if carry.size:
                    # New spills from a late-fed batch in an already-
                    # processed interval join an existing carry for
                    # the same boundary, behind it (their re-queue
                    # sequence numbers are larger).
                    carry = np.concatenate((carry, spill))
                    carry_c = np.concatenate((carry_c, spill_c))
                else:
                    carry = spill
                    carry_c = spill_c
                    carry_t = (k + 1) * T
                    carry_k = k + 1
                    new_carry_times.append(carry_t)
                if adm_n:
                    # Copies: a slice would be a view of this interval's
                    # carry concatenation (O(carry) long), and the plan
                    # would keep one alive per congested interval.
                    out_i.append(proc_i[adm].copy())
                    out_t.append(proc_t[adm].copy())
                    out_k.append(np.full(adm_n, k, dtype=np.int64))
                    out_a.append(np.ones(adm_n, dtype=bool))
                    n_admitted += adm_n
            elif denied:
                n_rejected += denied
                flags = np.zeros(cpos, dtype=bool)
                flags[adm] = True
                # Within each simultaneous batch the scalar loop
                # appends rejections immediately and dispatches the
                # admitted afterwards: stable-sort on (time, admitted)
                # puts rejected entries first at equal instants.
                emit = np.lexsort((flags, proc_t))
                out_i.append(proc_i[emit])
                out_t.append(proc_t[emit])
                out_k.append(np.full(cpos, k, dtype=np.int64))
                out_a.append(flags[emit])
                n_admitted += adm_n
            elif adm_n:
                out_i.append(proc_i)
                out_t.append(proc_t)
                out_k.append(np.full(adm_n, k, dtype=np.int64))
                out_a.append(np.ones(adm_n, dtype=bool))
                n_admitted += adm_n
            if cpos < len(ord_t):
                break

        if new_carry_times:
            # A spill boundary (k+1)·T may sit within the batching
            # tolerance of a distinct arrival: the hazard the up-front
            # guard checks, for instants that did not exist yet.  The
            # scalar loop would batch the two, so undo and demote.
            ct = np.array(new_carry_times)
            lo = t_all.searchsorted(ct - _BATCH_TOL)
            hi = t_all.searchsorted(ct + _BATCH_TOL, "right")
            near = lo < hi
            if near.any():
                lo, hi, ct = lo[near], hi[near], ct[near]
                if bool(np.any((t_all[lo] != ct) | (t_all[hi - 1] != ct))):
                    self._interval, self._count = state0
                    raise DemotionRequired("time_resolution")

        self._t = t_all[pos:]
        self._i = i_all[pos:]
        self._c = self._c[pos:]
        self._carry = carry
        self._carry_c = carry_c
        self._carry_time = carry_t
        self._carry_interval = carry_k

        if not out_i:
            return None
        order = np.concatenate(out_i)
        times = np.concatenate(out_t)
        intervals = np.concatenate(out_k)
        admitted = np.concatenate(out_a)
        starts = np.empty(order.size, dtype=bool)
        starts[0] = True
        np.not_equal(times[1:], times[:-1], out=starts[1:])
        return AdmissionPlan(order=order, times=times,
                             intervals=intervals, admitted=admitted,
                             starts=starts, n_admitted=n_admitted,
                             n_rejected=n_rejected,
                             n_delayed=n_delayed)
