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
    times.  Each congested interval, and each boundary the delayed
    carry is due at, is one step (:meth:`_Pass.step`) that applies the
    greedy rule on plain ints over the interval's own arrivals and the
    carry's head (:func:`_greedy_admit`): requests admit up to the
    first that does not fit, after which every write is denied and
    the next reads fill whatever room is left -- so admission is not
    a prefix, and a denied write can be followed by admitted reads.
3.  **Spill to the next interval.**  Denied requests under the paper's
    ``delay`` policy re-enter at ``(k+1)·T`` *behind* boundary-
    coincident arrivals (the heap orders origin-0 arrivals before
    origin-1 re-queues at equal timestamps) and behind any carry
    already waiting.  The carry is a queue consumed from its head: a
    ring of index and cost columns, with a short stack in front for
    the few entries denied ahead of an admitted one.  A step reads the
    carry only as far as the greedy rule can reach, pops what it
    admits and appends what it newly denies, so its work is
    proportional to what it admits, denies anew and scans, never to
    the carry's length, and sustained overload stays linear.  Under
    ``reject`` denied requests are emitted as rejected playback
    entries *before* the batch's admitted ones, exactly as the scalar
    loop appends them.
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

Statistical admission (ε > 0, §III-B2) runs on the same kernel.  Its
controller (:class:`repro.core.admission.StatisticalAdmission`) admits
an offer that takes the interval past ``S`` while the violation mass
``Q < ε``; within an interval its ``R_k`` histogram is frozen, so a
step applies the same greedy rule with that decision above ``S``
(:func:`_statistical_admit`), through the controller's own float path
on a copy whose histogram the take folds ahead in bulk
(:meth:`~repro.core.admission.StatisticalAdmission.close_intervals`).
The one coupling to placement is the violation count ``V``, which
``offer_conflict`` raises while the plan is walked: a take plans with
the ``V`` it starts with, the walker re-checks every admission above
``S`` once ``V`` has moved (``Q`` grows with ``V``, so a denial stays
a denial), and on a flip :meth:`VectorAdmissionWindow.retake` plans the
take again with the ``V`` each batch actually saw.

Everything here is decision *classification* only -- placement,
busy-until arithmetic, faulted replay submission and played-request
bookkeeping stay in :class:`repro.flash.driver.OnlineStreamSession`,
which walks the emitted :class:`AdmissionPlan` a slice at a time.
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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AdmissionPlan", "DemotionRequired", "VectorAdmissionWindow",
    "fold_intervals",
]

#: The driver's wake-up batching tolerance (``process_now`` pops every
#: heap entry within this of the batch anchor).
_BATCH_TOL = 1e-12


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
    #: statistical windows only: the interval's admitted units after
    #: each entry's decision (an admitted entry's offer took the count
    #: to this size)
    counts: Optional[np.ndarray] = None
    #: statistical windows only: ``(intervals, controllers)``, copies of
    #: the controller with its histogram folded to each interval (in
    #: ascending order) where the take asked for ``Q``, and to the
    #: take's last interval
    histograms: Optional[Tuple[List[int], list]] = None

    def __len__(self) -> int:
        return int(self.order.size)


_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)

#: least capacity of the delayed carry's ring
_RING_MIN = 64
#: carried entries a step reads beyond the budget's reach, before it
#: doubles its look-ahead
_LOOKAHEAD = 16


def _greedy_admit(costs: List[int], count0: int, limit: int,
                  ) -> Tuple[int, List[int], int, bool]:
    """The scalar ``count + cost <= S`` rule over one interval's
    requests in processing order, on plain ints.

    Returns ``(first, later, units, settled)``: the first ``first``
    requests are admitted, ``later`` lists the positions of any
    admitted after the first denial, ``units`` is the count after
    them, and ``settled`` is False when a request past the end of
    ``costs`` could still be admitted.  Costs are 1 (a read) or ``c``
    (a write), which makes the greedy rule two-phase: requests admit
    until the first one that does not fit; the room left is then
    below that request's cost, hence below ``c`` if it was a write and
    0 if it was a read, so every later write is denied and the next
    ``room`` reads still fit.
    """
    units = count0
    first = 0
    for cost in costs:
        if units + cost > limit:
            break
        units += cost
        first += 1
    else:
        return first, [], units, False
    later: List[int] = []
    room = limit - units
    if room:
        for j in range(first + 1, len(costs)):
            if costs[j] == 1:
                later.append(j)
                room -= 1
                if not room:
                    break
        else:
            return first, later, units + len(later), False
    return first, later, units + len(later), True


def _statistical_admit(costs: List[int], count0: int, limit: int,
                       kinds: Tuple[int, ...],
                       admits: Callable[[int, int], bool],
                       ) -> Tuple[int, List[int], int, bool]:
    """:func:`_greedy_admit` for the statistical controller, whose
    offers above ``S`` admit when ``admits(size, j)`` (``Q < ε`` for
    position ``j`` taking the interval to ``size``).

    Same returns.  A denial leaves the count as it was, so the next
    request of the same cost is denied too (``Q`` only grows along the
    order, with ``V``); once every cost in ``kinds`` is denied at the
    count reached, nothing later can be admitted and the scan stops,
    so a step reads the carry only as far as it can still admit.
    """
    units = count0
    first = 0
    for cost in costs:
        new = units + cost
        if new > limit and not admits(new, first):
            break
        units = new
        first += 1
    else:
        return first, [], units, False
    later: List[int] = []
    denied = {costs[first]: units}

    def settled(j: int) -> bool:
        # every cost denied at this count, probing those not yet seen
        for cost in kinds:
            if denied.get(cost) != units:
                new = units + cost
                if new <= limit or admits(new, j):
                    return False
                denied[cost] = units
        return True

    if settled(first):
        return first, later, units, True
    for j in range(first + 1, len(costs)):
        cost = costs[j]
        if denied.get(cost) == units:
            continue
        new = units + cost
        if new <= limit or admits(new, j):
            units = new
            later.append(j)
        else:
            denied[cost] = units
            if settled(j):
                return first, later, units, True
    return first, later, units, settled(len(costs) - 1)


def fold_intervals(admission, start: int, ks: Sequence[int],
                   sizes: Sequence[int], until: int) -> None:
    """Close intervals ``start .. until - 1`` of a statistical
    controller in one :meth:`~repro.core.admission.StatisticalAdmission.\
close_intervals` call: interval ``ks[i]`` holds ``sizes[i]`` requests
    (``ks`` ascending, within the range), every other one is empty."""
    g_sizes: List[int] = []
    g_reps: List[int] = []
    nxt = start
    for k, size in zip(ks, sizes):
        if k > nxt:
            g_sizes.append(0)
            g_reps.append(k - nxt)
        g_sizes.append(size)
        g_reps.append(1)
        nxt = k + 1
    if until > nxt:
        g_sizes.append(0)
        g_reps.append(until - nxt)
    admission.close_intervals(g_sizes, g_reps)


def _ring_grown(ring: tuple, extra: int, front: bool) -> tuple:
    """The carry ring ``(ids, costs, head, tail)``'s live entries in new
    arrays with room for ``extra`` more behind them, or in front of
    them when ``front``.  Growing never writes the old arrays, so the
    entries a :meth:`VectorAdmissionWindow.take` started with stay as
    they were while it runs."""
    ri, rc, rh, rn = ring
    live = rn - rh
    cap = max(_RING_MIN, 2 * (live + extra))
    head = (cap - live) // 2 if front else 0
    grown_i = np.empty(cap, dtype=np.int64)
    grown_c = np.empty(cap, dtype=np.int64)
    grown_i[head:head + live] = ri[rh:rn]
    grown_c[head:head + live] = rc[rh:rn]
    return grown_i, grown_c, head, head + live


def _ring_append(ring: tuple, ids, costs) -> tuple:
    """Append entries behind the carry ring."""
    k = len(ids)
    if ring[3] + k > ring[0].size:
        ring = _ring_grown(ring, k, False)
    ri, rc, rh, rn = ring
    ri[rn:rn + k] = ids
    rc[rn:rn + k] = costs
    return ri, rc, rh, rn + k


def _ring_prepend(ring: tuple, ids: List[int], costs: List[int]) -> tuple:
    """Put entries in front of the carry ring, in order."""
    d = len(ids)
    if ring[2] < d:
        ring = _ring_grown(ring, d, True)
    ri, rc, rh, rn = ring
    ri[rh - d:rh] = ids
    rc[rh - d:rh] = costs
    return ri, rc, rh - d, rn


class _Pass:
    """One :meth:`VectorAdmissionWindow.take`'s working state.

    Holds the processable arrivals (``t``, ``idx``, ``cost``, their
    intervals ``k_arr``), the plan columns it writes in place (every
    pending arrival and carried entry is emitted at most once), and the
    admission state and carry as the steps change them.  The window
    adopts the state only once the whole take is known to be exact, so
    a demotion leaves the window as it was.

    The carry is the stack (its first entry last) ahead of the ring.
    Entries leave from the head and denied arrivals join at the tail;
    the few denied ahead of an admitted entry go on the stack.  The
    ring entries the take started with are never written over.
    """

    __slots__ = ("t", "idx", "cost", "k_arr", "m", "cut", "limit",
                 "interval_ms", "delay", "ring", "out_i", "out_t",
                 "out_k", "out_a", "o", "pos", "stack_i", "stack_c",
                 "carry_t", "carry_k", "interval", "count",
                 "new_carry_times", "n_admitted", "n_rejected",
                 "n_delayed")

    def __init__(self, win: "VectorAdmissionWindow", t: np.ndarray,
                 idx: np.ndarray, cost: np.ndarray, k_arr: np.ndarray,
                 cut: float):
        self.t, self.idx, self.cost, self.k_arr = t, idx, cost, k_arr
        self.m = int(t.size)
        self.cut = cut
        self.limit = win.limit
        self.interval_ms = win.interval_ms
        self.delay = win.overflow == "delay"
        ring = self.ring = win._ring
        size = self.m + ring[3] - ring[2]
        self.out_i = np.empty(size, dtype=np.int64)
        self.out_t = np.empty(size, dtype=np.float64)
        self.out_k = np.empty(size, dtype=np.int64)
        self.out_a = np.ones(size, dtype=bool)
        self.o = 0
        self.pos = 0
        self.stack_i: List[int] = []
        self.stack_c: List[int] = []
        self.carry_t = win._carry_time
        self.carry_k = win._carry_interval
        self.interval = win._interval
        self.count = win._count
        #: spill boundaries this take created (checked at its end)
        self.new_carry_times: List[float] = []
        self.n_admitted = self.n_rejected = self.n_delayed = 0

    @property
    def carried(self) -> int:
        return len(self.stack_i) + self.ring[3] - self.ring[2]

    def bulk(self, end: int, units: np.ndarray) -> None:
        """Admit every arrival up to ``end`` at its own time: interval
        runs that never pass the cap, ``units`` their running count."""
        pos, o = self.pos, self.o
        n = end - pos
        self.out_i[o:o + n] = self.idx[pos:end]
        self.out_t[o:o + n] = self.t[pos:end]
        self.out_k[o:o + n] = self.k_arr[pos:end]
        self.o = o + n
        self.n_admitted += n
        self.interval = int(self.k_arr[end - 1])
        self.count = int(units[end - 1])
        self.pos = end

    def step(self) -> bool:
        """One congested-or-carry interval step, on plain ints; False
        when nothing more is due before the cut."""
        pos, m, k_arr = self.pos, self.m, self.k_arr
        carried = self.carried
        k_pos = int(k_arr[pos]) if pos < m else -1
        if carried and (pos >= m or self.carry_k <= k_pos):
            k = self.carry_k
            if not self.carry_t < self.cut:
                # The carry is not due yet.  Arrivals that ARE due but
                # sort at or before the carry instant sit in the
                # sub-tolerance band below the boundary; deferring
                # them to the next take() processes them with
                # identical admission state, so the final played log
                # is unchanged.
                return False
            joins = False
        elif pos < m:
            k = k_pos
            # denied arrivals join the carry behind its entries
            joins = carried > 0
            carried = 0
        else:
            return False
        hi = int(k_arr.searchsorted(k, side="right")) if k == k_pos \
            else pos
        seg_c = self.cost[pos:hi].tolist()
        count0 = self.count if k == self.interval else 0
        self._enter(k, count0)
        seq = self._order(pos, hi, carried, seg_c, count0)
        first, later, count, seq_c = seq[-4:]
        self.interval = k
        self.count = count
        adm_n = first + len(later)
        self.n_admitted += adm_n
        denied = carried + hi - pos - adm_n
        if not self.delay:
            self.n_rejected += denied
            self._emit_rejecting(pos, hi, k, first, later)
            self.pos = hi
            return True
        self._emit_admitted(seq, k, first, later)
        # Entries up to the last admitted one leave their sources; the
        # denied among them (holes) stay ahead of the rest.
        if later:
            done = later[-1] + 1
            holes = [j for j in range(first, done) if j not in later]
            front_i = [self._entry(seq, j)[0] for j in holes]
            front_c = [seq_c[j] for j in holes]
        else:
            done = first
            front_i, front_c = [], []
        pos, n_pre, n_stack, n_ring = seq[:4]
        if carried:
            used_pre = min(done, n_pre)
            rest = done - used_pre
            used_stack = min(rest, n_stack)
            rest -= used_stack
            used_ring = min(rest, n_ring)
            if used_stack:
                del self.stack_i[n_stack - used_stack:]
                del self.stack_c[n_stack - used_stack:]
            if used_pre < n_pre:
                front_i += self.idx[pos + used_pre:pos + n_pre].tolist()
                front_c += seg_c[used_pre:n_pre]
            self.stack_i.extend(reversed(front_i))
            self.stack_c.extend(reversed(front_c))
            ri, rc, rh, rn = self.ring
            self.ring = (ri, rc, rh + used_ring, rn)
            tail = pos + n_pre + rest - used_ring
        else:
            if front_i:
                self.ring = _ring_append(self.ring, front_i, front_c)
            tail = pos + done
        if tail < hi:
            self.ring = _ring_append(self.ring, self.idx[tail:hi],
                                     self.cost[tail:hi])
        self.pos = hi
        if denied:
            self.n_delayed += denied
            if not joins:
                # New spills from a late-fed batch in an already-
                # processed interval join an existing carry for the
                # same boundary, behind it (their re-queue sequence
                # numbers are larger); any other denial opens the
                # carry of the next boundary.
                self.carry_t = (k + 1) * self.interval_ms
                self.carry_k = k + 1
                self.new_carry_times.append(self.carry_t)
        return True

    def _order(self, pos: int, hi: int, carried: int, seg_c: List[int],
               count0: int) -> tuple:
        """The step's processing order and greedy decision: the
        arrivals ``[pos, hi)`` at or before the carry instant, the
        carry (stack, then ring) when ``carried``, then the other
        arrivals.  The carry is read ahead only as far as the greedy
        rule can reach, doubling while it is unsettled.  Returns
        ``(pos, n_pre, n_stack, n_ring, first, later, count, costs)``,
        ``costs`` the order's head as far as it was read."""
        if not carried:
            return (pos, 0, 0, 0) + self._admit(seg_c, count0, 0, 0)[:3] \
                + (seg_c,)
        n_pre = 0
        if hi > pos and self.t[pos] <= self.carry_t:
            n_pre = min(hi, int(self.t.searchsorted(self.carry_t,
                                                    "right"))) - pos
        stack_c = self.stack_c
        n_stack = len(stack_c)
        rc, rh, rn = self.ring[1:]
        n_carry = n_stack + rn - rh
        ahead = min(n_carry,
                    max(self.limit - count0, 0) + 1 + _LOOKAHEAD)
        pre_c = seg_c[:n_pre]
        while True:
            top = min(ahead, n_stack)
            seq_c = pre_c + stack_c[n_stack - top:][::-1] \
                + rc[rh:rh + ahead - top].tolist()
            if ahead == n_carry:
                seq_c += seg_c[n_pre:]
            first, later, count, settled = self._admit(seq_c, count0,
                                                       n_pre, ahead)
            if settled or ahead == n_carry:
                return (pos, n_pre, n_stack, rn - rh, first, later, count,
                        seq_c)
            ahead = min(n_carry, 2 * ahead)

    def _enter(self, k: int, count0: int) -> None:
        """A step in interval ``k`` begins, from ``count0`` units."""

    def _admit(self, costs: List[int], count0: int, n_pre: int,
               ahead: int) -> Tuple[int, List[int], int, bool]:
        """The admission rule over one step's order (``n_pre`` arrivals,
        then ``ahead`` carried entries, then arrivals)."""
        return _greedy_admit(costs, count0, self.limit)

    def _entry(self, seq: tuple, j: int) -> Tuple[int, float]:
        """``(index, time)`` of entry ``j`` of a step's order ``seq``."""
        pos, n_pre, n_stack, n_ring = seq[:4]
        if j < n_pre:
            return int(self.idx[pos + j]), float(self.t[pos + j])
        j -= n_pre
        if j < n_stack:
            return self.stack_i[n_stack - 1 - j], self.carry_t
        j -= n_stack
        if j < n_ring:
            return int(self.ring[0][self.ring[2] + j]), self.carry_t
        j += pos + n_pre - n_ring
        return int(self.idx[j]), float(self.t[j])

    def _emit_admitted(self, seq: tuple, k: int, first: int,
                       later: List[int]) -> None:
        """Write a step's admitted entries to the plan: the first
        ``first``, source by source, then ``later``."""
        pos, n_pre, n_stack, n_ring = seq[:4]
        out_i, out_t, o0 = self.out_i, self.out_t, self.o
        o = o0
        a = min(first, n_pre)
        if a:
            out_i[o:o + a] = self.idx[pos:pos + a]
            out_t[o:o + a] = self.t[pos:pos + a]
            o += a
        b = min(first - a, n_stack)
        if b:
            out_i[o:o + b] = self.stack_i[n_stack - b:][::-1]
            o += b
        c = min(first - a - b, n_ring)
        if c:
            rh = self.ring[2]
            out_i[o:o + c] = self.ring[0][rh:rh + c]
            o += c
        out_t[o - b - c:o] = self.carry_t
        d = first - a - b - c
        if d:
            lo = pos + n_pre
            out_i[o:o + d] = self.idx[lo:lo + d]
            out_t[o:o + d] = self.t[lo:lo + d]
            o += d
        for j in later:
            out_i[o], out_t[o] = self._entry(seq, j)
            o += 1
        self.out_k[o0:o] = k
        self.o = o

    def _emit_rejecting(self, pos: int, hi: int, k: int, first: int,
                        later: List[int]) -> None:
        """Write an interval's arrivals ``[pos, hi)`` to the plan under
        ``overflow="reject"``.  Within each simultaneous batch the
        scalar loop appends rejections immediately and dispatches the
        admitted afterwards: a stable sort on (time, admitted) puts
        rejected entries first at equal instants."""
        n, o = hi - pos, self.o
        flags = np.zeros(n, dtype=bool)
        flags[:first] = True
        flags[later] = True
        emit = np.lexsort((flags, self.t[pos:hi]))
        self.out_i[o:o + n] = self.idx[pos:hi][emit]
        self.out_t[o:o + n] = self.t[pos:hi][emit]
        self.out_k[o:o + n] = k
        self.out_a[o:o + n] = flags[emit]
        self.o = o + n
        return flags, emit


class _StatPass(_Pass):
    """One take's working state under the statistical controller.

    Adds a copy of the controller the steps fold ahead (the intervals a
    take passes are collected and folded in one call just before a
    step first asks for ``Q``), the plan's count column, and the ``V``
    each offer sees: the controller's own at the take's start or, when
    the take is planned again after a flip, the walker's observations
    (``schedule``: the instants of the batches whose placement admitted
    a conflict, and ``V`` after each).
    """

    __slots__ = ("adm", "adm_at", "closed_k", "closed_n", "out_n",
                 "run_ids", "run_k", "run_n", "kinds", "eps", "v0",
                 "sched_t", "sched_v", "step_k", "count0", "memo",
                 "hist_k", "hists")

    def __init__(self, win: "VectorAdmissionWindow", t: np.ndarray,
                 idx: np.ndarray, cost: np.ndarray, k_arr: np.ndarray,
                 cut: float, base, schedule: tuple, run_ids: np.ndarray,
                 run_k: List[int], run_n: List[int]):
        super().__init__(win, t, idx, cost, k_arr, cut)
        self.adm = base.copy()
        self.adm_at = self.interval
        self.closed_k: List[int] = []
        self.closed_n: List[int] = []
        self.out_n = np.empty(self.out_i.size, dtype=np.int64)
        #: interval runs of the arrivals: run of each position, and
        #: each run's interval and units at its end
        self.run_ids, self.run_k, self.run_n = run_ids, run_k, run_n
        self.kinds = (1,) if win._write_cost == 1 else \
            (1, win._write_cost)
        self.eps = base.epsilon
        self.v0 = base.violations
        self.sched_t, self.sched_v = schedule
        self.step_k = self.interval
        self.count0 = 0
        self.memo: dict = {}
        self.hist_k: List[int] = []
        self.hists: list = []

    def _close(self) -> None:
        """The take leaves its current interval."""
        self.closed_k.append(self.interval)
        self.closed_n.append(self.count)

    def bulk(self, end: int, units: np.ndarray) -> None:
        pos = self.pos
        r0 = int(self.run_ids[pos])
        r1 = int(self.run_ids[end - 1])
        if self.run_k[r0] != self.interval:
            self._close()
        self.closed_k += self.run_k[r0:r1]
        self.closed_n += self.run_n[r0:r1]
        self.out_n[self.o:self.o + end - pos] = units[pos:end]
        super().bulk(end, units)

    def _enter(self, k: int, count0: int) -> None:
        if k != self.interval:
            self._close()
        self.step_k = k
        self.count0 = count0
        self.memo = {}

    def _q_below(self, size: int, extra: int) -> bool:
        """``Q < ε`` for the step's interval reaching ``size``, with
        ``V`` raised by ``extra``."""
        if self.adm_at != self.step_k:
            self._fold(True)
        return self.adm.violation_probability(size, extra) < self.eps

    def _admits(self, size: int, j: int) -> bool:
        """The step's decision above ``S``, on the take's ``V``."""
        hit = self.memo.get(size)
        if hit is None:
            hit = self.memo[size] = self._q_below(size, 0)
        return hit

    def _admit(self, costs: List[int], count0: int, n_pre: int,
               ahead: int) -> Tuple[int, List[int], int, bool]:
        if not self.sched_t:
            admits = self._admits
        else:
            memo, q_below = self.memo, self._q_below
            pos, t, carry_t = self.pos, self.t, self.carry_t
            sched_t, sched_v, v0 = self.sched_t, self.sched_v, self.v0

            def admits(size: int, j: int) -> bool:
                if j < n_pre:
                    tau = float(t[pos + j])
                elif j < n_pre + ahead:
                    tau = carry_t
                else:
                    tau = float(t[pos + j - ahead])
                i = bisect_left(sched_t, tau)
                extra = sched_v[i - 1] - v0 if i else 0
                key = (size, extra)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = q_below(size, extra)
                return hit

        return _statistical_admit(costs, count0, self.limit, self.kinds,
                                  admits)

    def _fold(self, keep: bool) -> None:
        """Fold the copy up to the current step's interval, and keep a
        copy of it there for the plan (the copy itself when ``keep`` is
        False: the take is done with it)."""
        k = self.step_k
        fold_intervals(self.adm, self.adm_at, self.closed_k,
                       self.closed_n, k)
        self.closed_k, self.closed_n = [], []
        self.adm_at = k
        self.hist_k.append(k)
        self.hists.append(self.adm.copy() if keep else self.adm)

    def histograms(self) -> Tuple[List[int], list]:
        """The plan's :attr:`AdmissionPlan.histograms`, the copy folded
        to the take's last interval among them."""
        if self.adm_at != self.interval:
            self.step_k = self.interval
            self._fold(False)
        return self.hist_k, self.hists

    def _emit_admitted(self, seq: tuple, k: int, first: int,
                       later: List[int]) -> None:
        o0 = self.o
        super()._emit_admitted(seq, k, first, later)
        n = self.o - o0
        if self.kinds == (1,):
            # reads only: each admission adds one unit
            self.out_n[o0:self.o] = np.arange(self.count0 + 1,
                                              self.count0 + 1 + n)
            return
        costs = seq[-1]
        admitted = costs[:first] + [costs[j] for j in later]
        self.out_n[o0:self.o] = list(accumulate(admitted,
                                                initial=self.count0))[1:]

    def _emit_rejecting(self, pos: int, hi: int, k: int, first: int,
                        later: List[int]):
        o = self.o
        flags, emit = super()._emit_rejecting(pos, hi, k, first, later)
        units = np.cumsum(np.where(flags, self.cost[pos:hi], 0)) \
            + self.count0
        self.out_n[o:self.o] = units[emit]
        return flags, emit


class VectorAdmissionWindow:
    """Streaming admission classifier for one session.

    Owns the vector-mode equivalents of the session's pending heap and
    admission counter: unprocessed arrivals (kept sorted by arrival
    time), the current interval and its admitted count, and the
    delayed-spill carry queue.  :meth:`take` classifies everything
    processable before a cut and returns an :class:`AdmissionPlan`;
    the state left behind makes the next ``take`` resume exactly where
    the scalar loop would.

    ``statistical`` is the session's
    :class:`~repro.core.admission.StatisticalAdmission` (ε > 0), or
    ``None`` for the counting controller.  Each take plans on a copy
    of it, with its ``epsilon`` and ``V`` as they are when the take
    begins; the window never changes the controller itself (the
    session folds its histogram forward as it walks the plan).
    """

    def __init__(self, interval_ms: float, limit: int, overflow: str,
                 statistical=None):
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
        #: aligned with ``_t`` / ``_chunks_t``
        self._c = _EMPTY_I8
        self._chunks_c: List[np.ndarray] = []
        #: delayed-spill queue, due at ``_carry_time`` (always the
        #: start boundary of interval ``_carry_interval``): a ring of
        #: session indices and their costs, live from head to tail
        self._ring = (_EMPTY_I8, _EMPTY_I8, 0, 0)
        self._carry_time = 0.0
        self._carry_interval = -1
        #: last interval whose admissions started, and its count --
        #: the vector image of ``session._current_interval`` plus
        #: ``DeterministicAdmission._count``
        self._interval = -1
        self._count = 0
        self._stat = statistical
        #: budget units of the costliest request fed so far
        self._write_cost = 1
        #: statistical windows: the last take's input and starting
        #: state, for :meth:`retake`
        self._before: Optional[tuple] = None

    @property
    def statistical(self) -> bool:
        """Whether the window plans for the statistical controller."""
        return self._stat is not None

    @property
    def start_controller(self):
        """Statistical windows: the copy of the controller the last take
        planned from (its histogram, ``V`` and ``epsilon`` then)."""
        return self._before[-1]

    @property
    def interval(self) -> int:
        """The last interval whose admissions started (-1 before any)."""
        return self._interval

    @property
    def count(self) -> int:
        """The units admitted so far in :attr:`interval`."""
        return self._count

    # -- feeding -----------------------------------------------------------
    @property
    def n_pending(self) -> int:
        """Arrivals (or spilled re-queues) awaiting processing."""
        ring = self._ring
        n = int(self._t.size) + ring[3] - ring[2]
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
        if costs is None:
            costs = np.ones(len(times), dtype=np.int64)
        else:
            costs = np.ascontiguousarray(costs, dtype=np.int64)
            if costs.size:
                self._write_cost = max(self._write_cost, int(costs.max()))
        self._chunks_c.append(costs)
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
            "carry": self._ring[0][self._ring[2]:self._ring[3]].copy(),
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
        if self._stat is None:
            return self._take(until, None, ())
        ring = self._ring
        live = slice(ring[2], ring[3])
        self._before = (until, self._t, self._i, self._c,
                        (ring[0][live].copy(), ring[1][live].copy(), 0,
                         ring[3] - ring[2]),
                        self._carry_time, self._carry_interval,
                        self._interval, self._count, self._stat.copy())
        return self._take(until, self._before[-1], ((), ()))

    def retake(self, schedule: Tuple[Sequence[float], Sequence[int]],
               ) -> Optional[AdmissionPlan]:
        """Classify the last :meth:`take` again, from the state it began
        with, where the ``V`` of a batch at ``τ`` is the last of
        ``schedule``'s values whose instant is before ``τ`` (the
        controller's own at the take's start if none is).

        A statistical window's plan assumes ``V`` does not move during
        the take; the session walks it, and when a batch's admission
        above ``S`` no longer holds on the ``V`` its placements produced
        it calls this with the instants and values it saw.  Every batch
        before that one then plans as it did, and the rest on the ``V``
        now.  The new plan may spill where the first did not, so it can
        raise :class:`DemotionRequired` like :meth:`take`, with the
        window back at the take's start (:attr:`start_controller` the
        controller as it was then).
        """
        (until, t, i, c, ring, carry_time, carry_interval, interval,
         count, base) = self._before
        self._t, self._i, self._c = t, i, c
        self._ring = ring
        self._carry_time = carry_time
        self._carry_interval = carry_interval
        self._interval = interval
        self._count = count
        return self._take(until, base, schedule)

    def _take(self, until: Optional[float], base, schedule: tuple,
              ) -> Optional[AdmissionPlan]:
        t_all = self._t
        T = self.interval_ms
        S = self.limit
        cut = np.inf if until is None else float(until) - _BATCH_TOL
        m = int(np.searchsorted(t_all, cut, side="left"))
        has_carry = self._ring[3] > self._ring[2]
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

        if base is None:
            run = _Pass(self, t, self._i[:m], cost, k_arr, cut)
        else:
            run_k: List[int] = []
            run_n: List[int] = []
            if m:
                run_k = k_arr[run_starts].tolist()
                run_n = units[np.append(run_starts[1:], m) - 1].tolist()
            else:
                run_ids = _EMPTY_I8
            run = _StatPass(self, t, self._i[:m], cost, k_arr, cut, base,
                            schedule, run_ids, run_k, run_n)
        while True:
            pos = run.pos
            if pos < m and not run.carried:
                # Bulk emission: every interval run up to the next
                # congested one admits everything at its own arrival
                # time -- no per-interval work at all.
                j = int(np.searchsorted(congested, pos, side="left"))
                bulk_end = int(start_of[congested[j]]) \
                    if j < congested.size else m
                if bulk_end > pos:
                    run.bulk(bulk_end, units)
                    continue
            if not run.step():
                break

        if run.new_carry_times:
            # A spill boundary (k+1)·T may sit within the batching
            # tolerance of a distinct arrival: the hazard the up-front
            # guard checks, for instants that did not exist yet.  The
            # scalar loop would batch the two, so demote; the window
            # has not adopted anything of this take.
            ct = np.array(run.new_carry_times)
            lo = t_all.searchsorted(ct - _BATCH_TOL)
            hi = t_all.searchsorted(ct + _BATCH_TOL, "right")
            near = lo < hi
            if near.any():
                lo, hi, ct = lo[near], hi[near], ct[near]
                if bool(np.any((t_all[lo] != ct) | (t_all[hi - 1] != ct))):
                    raise DemotionRequired("time_resolution")

        ring = run.ring
        if run.stack_i:
            ring = _ring_prepend(ring, run.stack_i[::-1],
                                 run.stack_c[::-1])
        if ring[2] == ring[3]:
            ring = (ring[0], ring[1], 0, 0)
        self._ring = ring
        pos = run.pos
        if pos == t_all.size:
            # nothing left: let the consumed arrays go
            self._t, self._i, self._c = _EMPTY_F8, _EMPTY_I8, _EMPTY_I8
        else:
            self._t = t_all[pos:]
            self._i = self._i[pos:]
            self._c = self._c[pos:]
        self._carry_time = run.carry_t
        self._carry_interval = run.carry_k
        self._interval = run.interval
        self._count = run.count

        o = run.o
        if not o:
            return None
        times = run.out_t[:o]
        starts = np.empty(o, dtype=bool)
        starts[0] = True
        np.not_equal(times[1:], times[:-1], out=starts[1:])
        return AdmissionPlan(order=run.out_i[:o], times=times,
                             intervals=run.out_k[:o],
                             admitted=run.out_a[:o], starts=starts,
                             n_admitted=run.n_admitted,
                             n_rejected=run.n_rejected,
                             n_delayed=run.n_delayed,
                             counts=None if base is None
                             else run.out_n[:o],
                             histograms=None if base is None
                             else run.histograms())
