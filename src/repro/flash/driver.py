"""Trace players: feed block-request traces through the flash array.

Two drivers mirror the paper's two retrieval modes:

* :class:`BatchTracePlayer` -- interval-based design-theoretic
  retrieval (§III-C, used for Table III): requests are aligned to
  interval boundaries, each interval's batch is scheduled as a whole,
  and every request is issued at the interval start.
* :class:`OnlineTracePlayer` -- online retrieval (§IV-B, used for
  Figures 8-10 and 12): requests are served as they arrive, FCFS,
  with admission control deciding between *serve now*, *delay until a
  replica is idle* (deterministic QoS), *queue on the earliest-finish
  replica* (statistical QoS with ``Q < ε``), or *delay to the next
  interval* (budget overflow).

Both drivers support two interchangeable playback engines (see
:func:`select_engine`): the DES, which executes the actual service
through the simulated flash array, and a closed-form *fast* engine.
Both keep a busy-until mirror to make placement decisions; with
deterministic service times the mirror is exact, so on homogeneous
constant-latency configurations the fast engine reads the completion
times straight off the mirror instead of stepping the event loop
(under a fault schedule, :class:`repro.flash.faulted.FaultedReplay`
serves the placed queues instead).  The engines are bit-for-bit
identical where both apply -- enforced by property tests and the
determinism probes -- and ``"auto"`` falls back to the DES whenever a
custom module type (the batch player's ``module_factory``) makes
service times state-dependent.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.allocation.base import AllocationScheme
from repro.core.admission import (DeterministicAdmission,
                                  StatisticalAdmission)
from repro.flash import admitpath
from repro.flash.array import FlashArray, IORequest
from repro.flash.metrics import IntervalSeries
from repro.flash.params import FlashParams
from repro.flash.played import (DELAYED, FAILED, FAULTED, REJECTED,
                                PlayedLog, PlayedRequest, PlayedTable,
                                io_columns, reason_code)
from repro.retrieval.policy import combined_retrieval
from repro.sim import Environment
from repro.traces.records import _check_arrival_times

__all__ = ["BatchTracePlayer", "OnlineTracePlayer",
           "OnlineStreamSession", "PlayedRequest", "PlayedTable",
           "select_engine"]


def _observe_engine(engine: str, reason: str) -> None:
    """Count one engine selection into the obs kernel section."""
    if obs.ACTIVE:
        obs.SESSION.on_engine(engine, reason)


def select_engine(engine: str, module_factory=None) -> Tuple[str, str]:
    """Pick the playback engine; returns ``(engine, fallback_reason)``.

    ``"auto"`` (the default everywhere) selects the closed-form fast
    path whenever per-request service time is a pure function of the
    submission order and the DES otherwise; ``"fast"`` insists and
    raises on ineligible configurations; ``"des"`` always steps the
    event loop.  Both engines produce bit-identical results on eligible
    configurations -- enforced by the property tests and the
    ``fastpath``/``faults`` determinism probes.

    Fault schedules (:mod:`repro.faults`) -- empty *or* non-empty --
    keep the fast engine: they are materialised before playback, so
    :class:`repro.flash.faulted.FaultedReplay` replays them event-free,
    byte-identical to the DES.  Only a custom module type
    (``module_factory``: HDD seek/rotation, channel geometry), whose
    service time depends on hidden simulation state, falls back: the
    returned ``fallback_reason`` is then ``"module_factory"``, or
    ``"forced"`` when the caller demanded ``"des"``; it is empty when
    the fast path runs.
    """
    if engine not in ("auto", "des", "fast"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "des":
        return "des", "forced"
    if module_factory is None:
        return "fast", ""
    if engine == "fast":
        raise ValueError(
            "fast playback requires homogeneous constant-latency FCFS "
            "modules (no module_factory); fault schedules are fine")
    return "des", "module_factory"


#: the ``reason`` code of a request no live replica could serve
_UNAVAILABLE = reason_code("unavailable")

#: plan entries :meth:`OnlineStreamSession._walk` takes as Python lists
#: at once (a slice ends at the first batch start past it)
_SLICE = 2048


def _collect_series(played: PlayedTable) -> IntervalSeries:
    # Observability sees every played request here -- the one pass both
    # engines share -- so instrumented metrics/spans are derived from
    # the same bit-identical timestamps regardless of engine.
    if obs.ACTIVE:
        obs.SESSION.observe_played(played)
    # Never-served requests carry no meaningful response time; the QoS
    # layer accounts them separately (rejection counts, degraded-mode
    # ledger entries).
    # (column by column: a masked copy of the whole table would be
    # the play's largest allocation)
    served = played.served
    series = IntervalSeries()
    series.record_array(
        played.interval[served], played.response_ms[served],
        np.where(played.delayed, played.delay_ms, 0.0)[served])
    return series


def _finish_play(played: PlayedTable, n_devices: int,
                 interval_ms: float,
                 ) -> Tuple[IntervalSeries, PlayedTable]:
    """Shared play() epilogue: stats collection plus, when enabled,
    the per-module utilisation/queue-depth series."""
    series = _collect_series(played)
    if obs.ACTIVE:
        obs.SESSION.record_module_series(played, n_devices, interval_ms)
    return series, played


def _log_unavailable(log: PlayedLog, arrival: float, bucket: int,
                     is_read: bool, t: float, interval: int,
                     index: int) -> None:
    """Log a request failed at dispatch: no live replica."""
    log.add(arrival, bucket, is_read, t, 0.0, 0.0, t, -1, interval,
            index, FAILED | FAULTED, 0, _UNAVAILABLE)
    if obs.ACTIVE:
        obs.SESSION.on_fault("unavailable")


def _fill_from_ios(log: PlayedLog, pending: List[Tuple[int, IORequest]],
                   ) -> None:
    """Copy the DES's service outcomes into their placeholder rows."""
    if pending:
        rows = np.fromiter((row for row, _ in pending), np.int64,
                           len(pending))
        columns = io_columns([io for _, io in pending])
        flags = columns.pop("flags")
        log.fill(rows, columns, flags)


def _group_by_interval(arrivals: Sequence[float], interval_ms: float,
                       ) -> Dict[int, List[int]]:
    groups: Dict[int, List[int]] = {}
    for i, t in enumerate(arrivals):
        idx = int(t / interval_ms + 1e-9)
        groups.setdefault(idx, []).append(i)
    return groups


class BatchTracePlayer:
    """Interval-aligned playback with batch (design-theoretic) retrieval.

    Parameters
    ----------
    allocation:
        Bucket -> replica devices mapping.
    interval_ms:
        The QoS interval ``T``.
    retrieval:
        ``"combined"`` (DTR + max-flow fallback, §III-C, default) or
        ``"greedy"`` (the arrival-order least-loaded I/O driver of
        the RAID baselines in Table III).
    engine:
        ``"auto"`` (closed-form fast path when eligible, else DES),
        ``"des"`` or ``"fast"`` -- see :func:`select_engine`.
    faults:
        Optional :class:`repro.faults.FaultSchedule`.  Dead and down
        modules are masked out of every batch's candidate sets at the
        batch instant (failure-aware retrieval); buckets with no live
        replica fail as ``"unavailable"``.  Faulted playback replays
        on the fast engine, byte-identical to the DES.
    """

    def __init__(self, allocation: AllocationScheme, interval_ms: float,
                 retrieval: str = "combined",
                 params=None, module_factory=None,
                 engine: str = "auto", faults=None):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if retrieval not in ("combined", "greedy"):
            raise ValueError(f"unknown retrieval mode {retrieval!r}")
        self.allocation = allocation
        self.interval_ms = interval_ms
        self.retrieval = retrieval
        self.params = params
        #: optional custom module constructor (e.g. HDDModule for the
        #: flash-vs-HDD motivation ablation)
        self.module_factory = module_factory
        self.faults = faults
        self.engine, self.fallback_reason = select_engine(
            engine, module_factory=module_factory)

    def _schedule(self, candidates, carry):
        """Device assignment for one interval batch.

        ``carry[d]`` is the backlog on device ``d`` in service-time
        units at the batch instant; all modes are queue-aware so one
        slow interval does not silently cascade into the next.
        """
        n = self.allocation.n_devices
        if self.retrieval == "greedy":
            # The baseline I/O driver: arrival-order, least-loaded
            # replica (counting backlog).  No remapping, no max-flow.
            loads = list(carry)
            assignment = []
            for cands in candidates:
                best = min(cands, key=lambda d: loads[d])
                loads[best] += 1
                assignment.append(best)
            from repro.retrieval.schedule import RetrievalSchedule
            return RetrievalSchedule(tuple(assignment), n)
        if all(c <= 0 for c in carry):
            return combined_retrieval(candidates, n)
        from repro.retrieval.maxflow import maxflow_retrieval_with_carry
        return maxflow_retrieval_with_carry(candidates, n, carry)

    def play(self, arrivals: Sequence[float], buckets: Sequence[int],
             reads: Optional[Sequence[bool]] = None,
             ) -> Tuple[IntervalSeries, PlayedTable]:
        """Play a trace; returns per-interval stats and per-request detail.

        ``arrivals[i]`` is the arrival time (ms) of a request for
        ``buckets[i]``.  Requests arriving inside an interval are issued
        at the *next* interval boundary (the alignment rule of §IV);
        requests arriving exactly at a boundary belong to the interval
        that starts there.

        The batch player is read-only (as are all the paper's batch
        experiments); mixed read/write traces go through
        :class:`OnlineTracePlayer`.  Every arrival must be a finite
        time ``>= 0`` (a ``ValueError`` names the first bad index): a
        negative one would batch in a negative interval on the fast
        engine and at time 0 on the DES.
        """
        if len(arrivals) != len(buckets):
            raise ValueError("arrivals and buckets must align")
        if reads is not None and not all(reads):
            raise ValueError("BatchTracePlayer is read-only; use "
                             "OnlineTracePlayer for writes")
        _check_arrival_times(arrivals)
        _observe_engine(self.engine, self.fallback_reason)
        n_devices = self.allocation.n_devices
        array = replay = None
        if self.engine == "des":
            array = FlashArray(Environment(), n_devices, self.params,
                               module_factory=self.module_factory,
                               faults=self.faults)
            params = array.params
        else:
            params = self.params or FlashParams()
            if self.faults is not None and len(self.faults):
                from repro.flash.faulted import FaultedReplay

                replay = FaultedReplay(self.faults, n_devices, params)
        groups = _group_by_interval(arrivals, self.interval_ms)
        log = PlayedLog()
        #: DES rows awaiting their service outcome: (row, request)
        pending: List[Tuple[int, IORequest]] = []
        service = params.read_ms
        busy_until = [0.0] * n_devices

        def run():
            """The scheduling loop.  The engines differ only in who
            serves an issue: the DES modules, the busy-until mirror
            (exact for constant service times) or the faulted replay.
            Placement never reads service outcomes, so the mirror
            drives it identically on every engine."""
            for idx in sorted(groups):
                member = groups[idx]
                start = idx * self.interval_ms
                # Alignment: mid-interval arrivals wait for the next
                # boundary.  Boundary-aligned arrivals go at their own.
                batch_time = start
                if any(arrivals[i] > start + 1e-9 for i in member):
                    batch_time = (idx + 1) * self.interval_ms
                if array is not None and batch_time > array.env.now:
                    yield array.env.timeout_until(batch_time)
                # Failure-aware retrieval: dead/down modules leave the
                # candidate sets at the batch instant.
                masked = self.faults.masked_at(batch_time) \
                    if self.faults is not None else None
                live_member: List[int] = []
                cands = []
                for i in member:
                    cs = self.allocation.devices_for(int(buckets[i]))
                    if masked:
                        live = tuple(d for d in cs if d not in masked)
                        if not live:
                            _log_unavailable(log, float(arrivals[i]),
                                             int(buckets[i]), True,
                                             batch_time, idx, i)
                            continue
                        cs = live
                    live_member.append(i)
                    cands.append(cs)
                if not live_member:
                    continue
                carry = [max(0.0, b - batch_time) / service
                         for b in busy_until]
                schedule = self._schedule(cands, carry)
                for i, dev in zip(live_member, schedule.assignment):
                    arrival = float(arrivals[i])
                    bucket = int(buckets[i])
                    started = max(busy_until[dev], batch_time)
                    busy_until[dev] = started + service
                    issued = batch_time
                    if array is not None:
                        io = IORequest(arrival=arrival, bucket=bucket)
                        array.issue(io, dev)
                        # the DES clock starts at 0, so a batch before
                        # time 0 issues at 0
                        issued = io.issued_at
                        pending.append((len(log), io))
                    flags = DELAYED if issued > arrival + 1e-9 else 0
                    if array is None and replay is None:
                        log.add(arrival, bucket, True, batch_time,
                                batch_time, started, busy_until[dev],
                                dev, idx, i, flags)
                        continue
                    if replay is not None:
                        # Batch issues have no failover (as in the DES
                        # batch driver): candidates stay None.
                        replay.submit_read(len(log), dev, batch_time,
                                           batch_time)
                    # served later: a placeholder row, filled in by
                    # the DES or the replay
                    log.add(arrival, bucket, True, 0.0, 0.0, 0.0, 0.0,
                            -1, idx, i, flags)

        if array is not None:
            array.env.process(run())
            array.env.run()
            _fill_from_ios(log, pending)
        else:
            for _ in run():
                pass  # without an event loop the generator never yields
            if replay is not None:
                replay.run(log)
        return _finish_play(log.close(), n_devices, self.interval_ms)


class OnlineTracePlayer:
    """Online FCFS playback with admission control (§IV-B, §V-D/E).

    Parameters
    ----------
    allocation:
        Bucket -> replica devices mapping.
    interval_ms:
        The QoS interval ``T`` (admission budget granularity and the
        response-time guarantee).
    epsilon:
        ``0`` for deterministic QoS; ``> 0`` enables statistical
        admission, which requires ``probabilities``.
    probabilities:
        Sampled ``{k: P_k}`` table (statistical mode only).
    accesses:
        Access budget ``M`` per interval (default 1, as in the paper's
        real-trace experiments where ``T`` fits one access).

    Admission is one of the paper's two controllers: the
    deterministic ``S``-cap (§III-A1) at ``epsilon == 0`` or the
    statistical ``Q < ε`` rule (§III-B2) above it.
    """

    def __init__(self, allocation: AllocationScheme, interval_ms: float,
                 epsilon: float = 0.0,
                 probabilities: Optional[Dict[int, float]] = None,
                 accesses: int = 1, params=None,
                 overflow: str = "delay",
                 engine: str = "auto",
                 faults=None):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if epsilon > 0 and probabilities is None:
            raise ValueError("statistical mode requires probabilities")
        if overflow not in ("delay", "reject"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.allocation = allocation
        self.interval_ms = interval_ms
        self.epsilon = epsilon
        self.probabilities = probabilities or {}
        self.accesses = accesses
        self.params = params
        #: what happens to budget overflow: "delay" pushes the request
        #: to the next interval (paper's choice in §V-D, since
        #: cancelling may break applications); "reject" drops it --
        #: "it can either be rejected or delayed" (§III-A1).
        self.overflow = overflow
        #: optional :class:`repro.faults.FaultSchedule`.  Dead/down
        #: modules are masked out of candidate sets at dispatch time,
        #: the driver fails over to the next live replica (with the
        #: schedule's retry/backoff policy) when an issued request
        #: comes back failed, and writes go to the live replicas only.
        #: Faulted playback keeps the fast engine: the busy-until
        #: mirror drives placement exactly as in the DES (it is never
        #: updated from fault outcomes) and service replays through
        #: :class:`repro.flash.faulted.FaultedReplay`.
        self.faults = faults
        self.engine, self.fallback_reason = select_engine(engine)

    def _make_admission(self):
        if self.epsilon > 0:
            return StatisticalAdmission(
                self.probabilities, self.epsilon,
                self.allocation.replication, self.accesses)
        return DeterministicAdmission(self.allocation.replication,
                                      self.accesses)

    def play(self, arrivals: Sequence[float], buckets: Sequence[int],
             reads: Optional[Sequence[bool]] = None,
             ) -> Tuple[IntervalSeries, PlayedTable]:
        """Play a trace online; returns per-interval stats and detail.

        ``reads[i]`` False marks a write: it is applied to *every* live
        replica (replication consistency), counts ``c`` units against
        the interval budget, and completes when the slowest replica
        finishes.
        """
        session = self.session()
        session.feed(arrivals, buckets, reads=reads)
        return session.drain()

    def session(self) -> "OnlineStreamSession":
        """Open a long-running streaming session on this player.

        The session owns all play-loop state (admission window, device
        mirror, pending heap), so a caller can :meth:`~OnlineStream\
Session.feed` the trace chunk by chunk, :meth:`~OnlineStreamSession.\
advance` the clock to an interval boundary, act on what it saw
        (e.g. hand the next chunk a new placement), and keep feeding --
        traffic never stops.  Feeding the whole trace at once and
        draining is exactly :meth:`play`.
        """
        _observe_engine(self.engine, self.fallback_reason)
        return OnlineStreamSession(self)


class _StatWalk:
    """A statistical session's state while it walks one take's plan.

    ``runs_k`` / ``runs_n`` are the plan's interval runs (interval and
    units at the run's last entry, which is the interval's size when the
    take ends); ``hist_k`` / ``hists`` the plan's controller copies
    (:attr:`~repro.flash.admitpath.AdmissionPlan.histograms`);
    ``v_plan`` is the ``V`` the plan assumed for the batches not yet
    placed; ``at`` the last entry of the batch being placed;
    ``change_t`` / ``change_v`` record each admitted conflict's batch
    instant and ``V`` after it, for a re-plan.
    """

    __slots__ = ("plan", "runs_k", "runs_n", "hist_k", "hists", "start",
                 "v0", "v_plan", "change_t", "change_v", "at")

    def __init__(self, plan, violations: int, start: Tuple[int, int]):
        #: the window's interval and count, and ``V``, when the take
        #: began
        self.start = start
        self.v0 = violations
        #: the last plan entry of the batch being placed
        self.at = 0
        self.change_t: List[float] = []
        self.change_v: List[int] = []
        self.reset(plan, violations)

    def reset(self, plan, violations: int) -> None:
        """Walk ``plan`` on, which assumes ``V = violations``."""
        self.plan = plan
        self.v_plan = violations
        ks = plan.intervals
        ends = np.append(np.flatnonzero(ks[1:] != ks[:-1]), ks.size - 1)
        self.runs_k = ks[ends].tolist()
        self.runs_n = plan.counts[ends].tolist()
        self.hist_k, self.hists = plan.histograms


class OnlineStreamSession:
    """One long-running play-through of an :class:`OnlineTracePlayer`.

    Owns every piece of state the online driver threads through a
    trace -- the admission window, the busy-until device mirror, the
    pending-request heap, the played-request columns (a
    :class:`~repro.flash.played.PlayedLog`) and (faulted fast engine)
    the :class:`~repro.flash.faulted.FaultedReplay` -- and the
    placement that reads and writes it, so that sessions
    and plays sharing one player never interfere, and a caller can
    interleave *feeding* traffic with *acting* on what has been served
    so far:

    >>> session = player.session()              # doctest: +SKIP
    >>> session.feed(chunk.arrivals, chunk.buckets)  # doctest: +SKIP
    >>> session.advance(next_chunk_start)       # doctest: +SKIP
    >>> series, played = session.drain()        # doctest: +SKIP

    ``feed`` + ``drain`` over the whole trace is byte-identical to
    :meth:`OnlineTracePlayer.play` -- the loop below *is* the play
    loop, merely re-entrant.  Identity across chunkings holds because
    the pending heap orders entries by ``(time, origin, sequence)``
    where origin 0 marks fed arrivals (in feed order) and origin 1
    marks budget-overflow re-queues (in re-queue order): at equal
    timestamps, arrivals beat re-queues regardless of how late the
    arrival was fed, exactly as the one-shot heap ordered them.

    Incremental :meth:`advance` is a fast-engine feature (the
    :mod:`repro.controller` loop); the DES drains in one
    :meth:`drain` call, where the event loop runs to completion.
    """

    def __init__(self, player: OnlineTracePlayer):
        self.player = player
        self.faults = player.faults
        self.fast = player.engine == "fast"
        #: the faulted fast engine's service queue: placement below is
        #: final (the mirror ignores fault outcomes, as in the DES) and
        #: the replay serves what was placed when the session drains.
        #: Per session, so sessions and plays on one player never share
        #: one.
        self.replay = None
        if self.fast:
            self.env = None
            self.array = None
            self.params = player.params or FlashParams()
            if self.faults is not None and len(self.faults):
                from repro.flash.faulted import FaultedReplay

                self.replay = FaultedReplay(
                    self.faults, player.allocation.n_devices,
                    self.params)
        else:
            self.env = Environment()
            self.array = FlashArray(self.env,
                                    player.allocation.n_devices,
                                    player.params, faults=player.faults)
            self.params = self.array.params
        self.admission = player._make_admission()
        self.service = self.params.read_ms
        self.busy_until = [0.0] * player.allocation.n_devices
        #: fault-mask change points: the masked module set is
        #: ``self._masks[bisect_right(self._mask_pts, t)]`` (see
        #: :meth:`repro.faults.FaultSchedule.mask_segments`)
        self._mask_pts, self._masks = (
            self.faults.mask_segments() if self.faults is not None
            else ([], [frozenset()]))
        #: the same change points as an array, for the plan walker
        self._mask_at = np.asarray(self._mask_pts, dtype=np.float64)
        #: per mask segment: bucket -> live replica tuple
        self._live: List[Dict[int, Tuple[int, ...]]] = \
            [{} for _ in self._masks]
        #: the played rows, in play order; fast sessions write them
        #: at placement, the faulted replay and the DES fill theirs in
        #: by row at drain
        self._log = PlayedLog()
        #: DES rows awaiting their service outcome: (row, request)
        self._pending_ios: List[Tuple[int, IORequest]] = []
        #: the latest advance() bound: a later feed may not arrive
        #: before its cut (``until_ms - 1e-12``)
        self._until = -np.inf
        #: request columns, growing with every feed(): lists on the
        #: scalar loop, arrays with spare capacity on the vector path
        #: (whose plan walker reads them a slice of rows at a time)
        self.arrivals: Sequence[float] = []
        self.buckets: Sequence[int] = []
        self.is_read: Sequence[bool] = []
        self._n_fed = 0
        #: pending heap: (effective_time, origin, seq, index);
        #: origin 0 = fed arrival (seq = feed order), origin 1 =
        #: budget-overflow re-queue (seq = re-queue order)
        self.heap: List[Tuple[float, int, int, int]] = []
        self._requeues = 0
        self._current_interval = -1
        self._drained = False
        #: vectorized admission kernel (every fast session, under
        #: either controller; a statistical window plans on a copy of
        #: ``admission`` and the walk below keeps the controller itself
        #: in step); ``None`` keeps the scalar reference loop.
        #: ``admission_kernel`` / ``admission_fallback_reason`` report
        #: the resolution the same way the player's ``engine`` /
        #: ``fallback_reason`` do.
        self._vec = None
        self.admission_kernel = "scalar"
        self.admission_fallback_reason = "des_engine"
        #: statistical vector sessions: the interval the controller's
        #: histogram is folded to (its count is that interval's), the
        #: walk's state while a plan is walked, and how many times a
        #: walk found an admission above ``S`` flipped by the ``V`` its
        #: placements raised and had the take planned again
        self._adm_k = -1
        self._stat_walk: Optional[_StatWalk] = None
        self.replans = 0
        if self.fast:
            statistical = self.admission if isinstance(
                self.admission, StatisticalAdmission) else None
            self._vec = admitpath.VectorAdmissionWindow(
                player.interval_ms, self.admission.limit,
                player.overflow, statistical=statistical)
            self.arrivals = np.empty(0, dtype=np.float64)
            self.buckets = np.empty(0, dtype=np.int64)
            self.is_read = np.empty(0, dtype=bool)
            self.admission_kernel = "vector"
            self.admission_fallback_reason = ""

    def __len__(self) -> int:
        """Requests fed so far."""
        return self._n_fed

    @property
    def played(self) -> PlayedTable:
        """The rows played so far, in play order.

        Readable mid-stream (``len``, ``played[mark:]``): rows the
        faulted replay or the DES serves hold placeholders (device
        ``-1``, zero timestamps) until :meth:`drain`.
        """
        return self._log.table()

    @property
    def n_pending(self) -> int:
        """Requests fed (or re-queued) but not yet processed."""
        if self._vec is not None:
            return self._vec.n_pending
        return len(self.heap)

    # -- feeding -----------------------------------------------------------
    def feed(self, arrivals: Sequence[float], buckets: Sequence[int],
             reads: Optional[Sequence[bool]] = None) -> None:
        """Append a chunk of traffic to the stream.

        Chunks must be fed in arrival order *between* calls (the heap
        orders within a chunk).  Every arrival must be a finite time
        ``>= 0``: a NaN or infinite arrival would never be served, and
        a negative one would fall into a negative QoS interval on one
        engine and interval 0 on the other.  An arrival may not fall
        behind the last :meth:`advance` cut either (``until_ms`` less
        the driver's ``1e-12`` tolerance): the interval it belongs to
        was already processed, so it would be played late and charged
        to the current admission window.  Either way the chunk is
        refused with a ``ValueError`` naming the first bad index.
        """
        if self._drained:
            raise RuntimeError("session already drained")
        if len(arrivals) != len(buckets):
            raise ValueError("arrivals and buckets must align")
        if reads is not None and len(reads) != len(buckets):
            raise ValueError("reads must align with buckets")
        times = _check_arrival_times(arrivals, "arrival {} of the chunk")
        late = times < self._until - 1e-12
        if late.any():
            bad = int(np.argmax(late))
            raise ValueError(
                f"arrival {bad} of the chunk is {float(times[bad])!r}, "
                f"behind the last advance({self._until!r}); feed "
                "arrivals at or after the advance cut")
        base = self._n_fed
        n = len(times)
        self._n_fed = base + n
        if self._vec is not None:
            if base + n > self.arrivals.size:
                size = max(base + n, 2 * self.arrivals.size)
                for name in ("arrivals", "buckets", "is_read"):
                    column = getattr(self, name)
                    grown = np.empty(size, dtype=column.dtype)
                    grown[:base] = column[:base]
                    setattr(self, name, grown)
            self.arrivals[base:base + n] = times
            self.buckets[base:base + n] = np.asarray(buckets,
                                                     dtype=np.int64)
            costs = None
            if reads is None:
                self.is_read[base:base + n] = True
            else:
                flags = np.asarray(reads, dtype=bool).reshape(-1)
                self.is_read[base:base + n] = flags
                if not flags.all():
                    # A write lands on every replica: c budget units.
                    costs = np.where(
                        flags, 1, self.player.allocation.replication)
            self._vec.feed(times, np.arange(base, base + n,
                                            dtype=np.int64), costs)
            return
        for i, t in enumerate(times.tolist()):
            seq = base + i
            self.arrivals.append(t)
            self.buckets.append(int(buckets[i]))
            self.is_read.append(True if reads is None
                                else bool(reads[i]))
            heapq.heappush(self.heap, (t, 0, seq, seq))

    # -- processing --------------------------------------------------------
    def interval_of(self, t: float) -> int:
        return int(t / self.player.interval_ms + 1e-9)

    def process_now(self, t: float) -> None:
        """One wake-up: admit and place everything due at ``t``.

        Shared verbatim by both engines, so the only difference
        between them is who serves the requests -- the DES modules
        or the (provably identical) busy-until arithmetic.
        """
        if self.replay is not None:
            self.replay.wakes.append(t)
        idx, admitted = self._offer_batch(t)
        self._place(admitted, t, idx, bisect_right(self._mask_pts, t))

    def _offer_batch(self, t: float, log: bool = True,
                     ) -> Tuple[int, List[int]]:
        """Roll the admission window to ``t``'s interval and offer the
        batch due at ``t``: returns the interval and the admitted
        requests.  Rejected requests are logged (unless ``log`` is
        False), delayed ones re-queued at the next boundary."""
        player = self.player
        # Roll the admission window forward.
        idx = self.interval_of(t)
        while self._current_interval < idx:
            self.admission.start_interval()
            self._current_interval += 1
        # Gather the batch of simultaneous arrivals.
        batch: List[int] = []
        while self.heap and self.heap[0][0] <= t + 1e-12:
            _, _, _, orig = heapq.heappop(self.heap)
            batch.append(orig)
        admitted: List[int] = []
        for orig in batch:
            cost = 1 if self.is_read[orig] else \
                player.allocation.replication
            if self.admission.offer(cost):
                if obs.ACTIVE:
                    obs.SESSION.on_admission("admitted")
                admitted.append(orig)
            elif player.overflow == "reject":
                if obs.ACTIVE:
                    obs.SESSION.on_admission("rejected")
                if log:
                    self._reject(orig, idx)
            else:
                # Budget overflow: delay to the next interval.
                if obs.ACTIVE:
                    obs.SESSION.on_admission("delayed")
                next_start = (idx + 1) * player.interval_ms
                heapq.heappush(self.heap, (next_start, 1,
                                           self._requeues, orig))
                self._requeues += 1
        return idx, admitted

    # -- placement ---------------------------------------------------------
    def _reject(self, orig: int, idx: int) -> None:
        """Log a request admission rejected outright; never served."""
        self._log.add(self.arrivals[orig], self.buckets[orig],
                      self.is_read[orig], 0.0, 0.0, 0.0, 0.0, -1, idx,
                      orig, REJECTED)

    def _unavailable(self, orig: int, t: float, idx: int) -> None:
        _log_unavailable(self._log, self.arrivals[orig],
                         self.buckets[orig], self.is_read[orig], t, idx,
                         orig)

    def _place(self, admitted: List[int], t: float, idx: int,
               seg: int) -> None:
        """Place one admitted batch of simultaneous requests, in
        :meth:`process_now` order: the reads together, then the writes
        one by one.  ``seg`` is the fault-mask segment holding ``t``."""
        is_read = self.is_read
        reads = [o for o in admitted if is_read[o]]
        if reads:
            self._dispatch(reads, t, idx, seg)
        for orig in admitted:
            if not is_read[orig]:
                self._issue_write(orig, t, idx, seg)

    def _live_replicas(self, seg: int, bucket: int) -> Tuple[int, ...]:
        """``bucket``'s replicas outside fault-mask segment ``seg``'s
        masked set (failure-aware retrieval), memoised per segment."""
        live = self._live[seg].get(bucket)
        if live is None:
            live = self.player.allocation.devices_for(bucket)
            masked = self._masks[seg]
            if masked:
                live = tuple(d for d in live if d not in masked)
            self._live[seg][bucket] = live
        return live

    def _dispatch(self, admitted: List[int], t: float, idx: int,
                  seg: int) -> None:
        """Place an admitted batch of simultaneous reads.

        With a fault schedule, dead/down modules leave every candidate
        set first; a request whose replicas are all masked fails as
        ``"unavailable"`` without touching the array.
        """
        live_admitted: List[int] = []
        cands = []
        for i in admitted:
            cs = self._live_replicas(seg, self.buckets[i])
            if not cs:
                self._unavailable(i, t, idx)
                continue
            live_admitted.append(i)
            cands.append(cs)
        if not live_admitted:
            return
        if len(live_admitted) > 1:
            # Simultaneous arrivals are scheduled together (§IV-B).
            schedule = combined_retrieval(
                cands, self.player.allocation.n_devices)
            chosen = list(schedule.assignment)
        else:
            chosen = [self._pick(cands[0], t)]
        for orig, dev, cs in zip(live_admitted, chosen, cands):
            self._issue_one(orig, dev, t, idx, cs)

    def _pick(self, candidates: Sequence[int], t: float) -> int:
        """The first idle replica, else the one that finishes first."""
        busy_until = self.busy_until
        for d in candidates:
            if busy_until[d] <= t + 1e-12:
                return d
        return min(candidates, key=lambda d: busy_until[d])

    def _queue_read(self, dev: int, t: float) -> Tuple[float, float, bool]:
        """Place one read on ``dev`` at ``t``: ``(issue_at, started,
        held)``, and ``dev``'s busy-until advanced past its service.
        ``held`` marks a read held until the device is idle."""
        busy_until = self.busy_until
        service = self.service
        wait = busy_until[dev] - t
        guarantee = self.player.accesses * service
        # A queued request still meets the guarantee while
        # wait + service <= M * service; only waits beyond that are
        # QoS-relevant conflicts.  (With M = 1 any wait conflicts,
        # which is the paper's real-trace setting.)
        conflict = wait + service > guarantee + 1e-12
        admit_queued = False
        if conflict and self.player.epsilon > 0:
            # Statistical QoS: knowingly violate the guarantee for this
            # request (it queues) as long as the violation mass Q stays
            # below epsilon (see StatisticalAdmission.offer_conflict).
            admit_queued = self._offer_conflict(t)
        held = conflict and not admit_queued
        # Deterministic QoS (or epsilon budget exhausted): hold the
        # request until the device is idle, then issue -- response time
        # stays one service time and the wait is accounted as admission
        # delay (Fig 8c/d).  Otherwise serve now; within-guarantee
        # queueing (or an admitted conflict) absorbs the wait into the
        # response (Fig 10b).
        issue_at = busy_until[dev] if held else t
        started = max(busy_until[dev], issue_at)
        busy_until[dev] = started + service
        return issue_at, started, held

    def _offer_conflict(self, t: float) -> bool:
        """``offer_conflict`` for a request of the batch at ``t``.

        On the vector path the controller is brought to the batch
        being placed first (the walk's ``at``, its last plan entry):
        its histogram folded to the batch's interval and its count to
        the batch's (:meth:`_sync_admission`).  An admitted
        conflict raises ``V``, which the walk records by instant.
        """
        walk = self._stat_walk
        if walk is None:
            return bool(self.admission.offer_conflict())
        plan, e = walk.plan, walk.at
        k, count = int(plan.intervals[e]), int(plan.counts[e])
        if k == self._adm_k:
            self.admission.resume(count)
        else:
            self._sync_admission(k, count)
        if not self.admission.offer_conflict():
            return False
        walk.change_t.append(t)
        walk.change_v.append(self.admission.violations)
        return True

    def _issue_one(self, orig: int, dev: int, t: float, idx: int,
                   candidates: Sequence[int]) -> None:
        arrival = self.arrivals[orig]
        bucket = self.buckets[orig]
        issue_at, started, held = self._queue_read(dev, t)
        # a held read was delayed; any other by budget earlier
        flags = DELAYED if held or arrival + 1e-9 < t else 0
        log = self._log
        if self.array is None and self.replay is None:
            # Fast engine: with constant service times the busy-until
            # mirror *is* the module, so log the timestamps directly
            # (same max, same single addition as the service loop).
            log.add(arrival, bucket, True, issue_at, issue_at, started,
                    self.busy_until[dev], dev, idx, orig, flags)
            return
        row = len(log)
        if self.array is not None:
            io = IORequest(arrival, bucket)
            self.env.process(
                self._issue_process(io, dev, issue_at, candidates))
            self._pending_ios.append((row, io))
        else:
            self.replay.submit_read(row, dev, issue_at, t,
                                    candidates=candidates)
        # served later: a placeholder the DES or the replay fills in
        log.add(arrival, bucket, True, 0.0, 0.0, 0.0, 0.0, -1, idx, orig,
                flags)

    def _issue_process(self, io: IORequest, dev: int, issue_at: float,
                       candidates: Sequence[int]):
        """Issue one read; under faults, fail over across replicas.

        The healthy path is a single issue-and-wait, unchanged.  With
        a fault schedule, a failed attempt (dead module, read retries
        exhausted) is retried on the next live untried replica after
        the schedule's backoff; ``issued_at`` keeps the *first* issue
        time so the recorded response spans every attempt.  When no
        live replica remains (or the retry budget runs out) the
        request stays failed.
        """
        array = self.array
        if issue_at > array.env.now:
            yield array.env.timeout_until(issue_at)
        done = array.issue(io, dev)
        if self.faults is None:
            yield done
            return
        first_issue = io.issued_at
        retry = self.faults.retry
        tried = [dev]
        attempt = 0
        while True:
            yield done
            if not io.failed:
                return
            masked = self.faults.masked_at(array.env.now)
            alive = [d for d in candidates
                     if d not in tried and d not in masked]
            if not alive or attempt >= retry.max_retries:
                if obs.ACTIVE:
                    obs.SESSION.on_fault("unavailable")
                return
            nxt = alive[0]
            if obs.ACTIVE:
                obs.SESSION.on_fault("failover")
            backoff = retry.delay(attempt)
            attempt += 1
            io.retries += 1
            io.failed = False
            io.fail_reason = ""
            io.faulted = True
            if backoff > 0:
                yield array.env.timeout(backoff)
            tried.append(nxt)
            done = array.issue(io, nxt)
            io.issued_at = first_issue

    def _issue_write(self, orig: int, t: float, idx: int,
                     seg: int) -> None:
        """Apply a write to every live replica of its bucket.

        The logical request completes when the slowest replica does;
        conflict policy mirrors the read path (deterministic QoS waits
        for all replicas to go idle, statistical QoS may queue).

        Under faults the write goes to the *live* replicas only (a
        degraded write, flagged ``faulted``); with every replica
        masked the write fails as ``"unavailable"``.
        """
        bucket = self.buckets[orig]
        devices = self._live_replicas(seg, bucket)
        if not devices:
            self._unavailable(orig, t, idx)
            return
        degraded_write = len(devices) < len(
            self.player.allocation.devices_for(bucket))
        if degraded_write and obs.ACTIVE:
            obs.SESSION.on_fault("degraded_write")
        busy_until = self.busy_until
        write_service = self.params.write_ms
        arrival = self.arrivals[orig]
        guarantee = self.player.accesses * self.service
        worst_wait = max(busy_until[d] - t for d in devices)
        conflict = worst_wait + write_service > \
            max(guarantee, write_service) + 1e-12
        admit_queued = False
        if conflict and self.player.epsilon > 0:
            admit_queued = self._offer_conflict(t)
        if conflict and not admit_queued:
            issue_at = max(busy_until[d] for d in devices)
            delayed = True
        else:
            issue_at = t
            delayed = arrival + 1e-9 < t
        for d in devices:
            busy_until[d] = max(busy_until[d], issue_at) + write_service
        flags = (DELAYED if delayed else 0) \
            | (FAULTED if degraded_write else 0)
        # A write master has no single device or service window; its
        # completion is the slowest replica's (the DES and the replay
        # fill it in at drain).
        completed = 0.0
        if self.array is not None:
            master = IORequest(arrival=arrival, bucket=bucket,
                               is_read=False)
            master.faulted = degraded_write
            self.env.process(self._write_process(master, devices,
                                                 issue_at))
            self._pending_ios.append((len(self._log), master))
        elif self.replay is not None:
            self.replay.submit_write(len(self._log), devices, issue_at, t)
        else:
            completed = max(busy_until[d] for d in devices)
        self._log.add(arrival, bucket, False, issue_at, 0.0, 0.0,
                      completed, -1, idx, orig, flags)

    def _write_process(self, master: IORequest, devices,
                       issue_at: float):
        from repro.sim import AllOf

        array = self.array
        if issue_at > array.env.now:
            yield array.env.timeout_until(issue_at)
        master.issued_at = array.env.now
        events = []
        replicas = []
        for d in devices:
            replica = IORequest(arrival=master.arrival,
                                bucket=master.bucket, is_read=False)
            replicas.append(replica)
            events.append(array.issue(replica, d))
        yield AllOf(array.env, events)
        master.completed_at = array.env.now
        # Fault accounting: a replica lost mid-write degrades the
        # logical write; losing every replica fails it.
        if any(r.failed or r.faulted for r in replicas):
            master.faulted = True
            master.retries = sum(r.retries for r in replicas)
        if replicas and all(r.failed for r in replicas):
            master.failed = True
            master.fail_reason = replicas[0].fail_reason

    def advance(self, until_ms: float) -> None:
        """Process every pending request strictly before ``until_ms``.

        The cut is exclusive (with the driver's timestamp tolerance):
        entries at or after ``until_ms`` stay pending, so feeding the
        next chunk and advancing again batches boundary-coincident
        arrivals exactly as the one-shot play loop would.  Fast engine
        only -- the DES runs its event loop once, in :meth:`drain`.
        """
        if not self.fast:
            raise RuntimeError(
                "incremental advance requires the fast engine; the "
                "DES drains in one step")
        if self._drained:
            raise RuntimeError("session already drained")
        self._until = max(self._until, until_ms)
        if self._vec is not None:
            self._advance_vector(until_ms)
            if self._vec is not None:
                return
        while self.heap and self.heap[0][0] < until_ms - 1e-12:
            self.process_now(self.heap[0][0])

    # -- vectorized admission path -----------------------------------------
    def _advance_vector(self, until_ms: Optional[float]) -> None:
        """Classify-and-dispatch everything due before ``until_ms``.

        The segmented kernel (:mod:`repro.flash.admitpath`) computes
        the whole chunk's admission decisions in one pass; dispatch
        then walks the plan batch by batch with the scalar loop's
        exact placement arithmetic.  When the kernel cannot guarantee
        byte-identity (sub-tolerance timestamp gaps, out-of-order
        feeds) the session demotes: the pending set is rebuilt into
        the reference heap and processing continues scalar.
        """
        vec = self._vec
        start = (vec.interval, vec.count)
        try:
            plan = vec.take(until_ms)
        except admitpath.DemotionRequired as exc:
            self._demote(exc.reason)
            return
        if plan is not None:
            if vec.statistical:
                self._stat_walk = _StatWalk(
                    plan, self.admission.violations, start)
            self._run_plan(plan)
            if self._vec is None:
                return  # a re-plan handed the take to the scalar loop
        if vec.statistical:
            # the controller follows the window to the take's end
            self._sync_admission(vec.interval, vec.count)
            self._stat_walk = None

    def _sync_admission(self, k: int, count: int) -> None:
        """Bring the statistical controller to interval ``k`` at
        ``count`` units.

        Its histogram becomes the plan's copy at the latest interval
        not past ``k`` when there is one ahead of it, and the intervals
        left are folded in with their sizes read off the plan (an
        interval with no entry in it holds what it started the take
        with: the take's first interval its count, any other none).
        """
        adm = self.admission
        a = self._adm_k
        if k != a:
            walk = self._stat_walk
            if walk is None:
                admitpath.fold_intervals(adm, a, [a], [adm.interval_count],
                                         k)
            else:
                j = bisect_right(walk.hist_k, k) - 1
                if j >= 0 and walk.hist_k[j] > a:
                    a = walk.hist_k[j]
                    adm.adopt(walk.hists[j])
                if k != a:
                    runs_k = walk.runs_k
                    r0 = bisect_left(runs_k, a)
                    r1 = bisect_left(runs_k, k)
                    ks = runs_k[r0:r1]
                    sizes = walk.runs_n[r0:r1]
                    if not ks or ks[0] != a:
                        ks = [a] + ks
                        sizes = [walk.start[1] if a == walk.start[0]
                                 else 0] + sizes
                    admitpath.fold_intervals(adm, a, ks, sizes, k)
            self._adm_k = k
        adm.resume(count)

    def _demote(self, reason: str) -> None:
        """Fall back to the scalar loop mid-stream, exactly.

        Pending arrivals become ``(t, 0, seq, seq)`` heap entries (the
        feed sequence *is* the column index) and the delayed-spill
        carry becomes ``(boundary, 1, requeue, index)`` entries in
        spill order, reproducing the heap the scalar loop would have
        built; the admission window resumes mid-interval via the
        controller's ``resume`` (a statistical controller's histogram
        is already folded to that interval).
        """
        state = self._vec.export_state()
        self._vec = None
        n = self._n_fed
        self.arrivals = self.arrivals[:n].tolist()
        self.buckets = self.buckets[:n].tolist()
        self.is_read = self.is_read[:n].tolist()
        self.admission_kernel = "scalar"
        self.admission_fallback_reason = reason
        heap = self.heap
        for t, seq in zip(state["times"].tolist(),
                          state["indices"].tolist()):
            heap.append((t, 0, seq, seq))
        carry = state["carry"].tolist()
        for j, idx in enumerate(carry):
            heap.append((state["carry_time"], 1, j, idx))
        self._requeues = len(carry)
        heapq.heapify(heap)
        self._current_interval = state["interval"]
        self.admission.resume(state["count"])

    def _run_plan(self, plan) -> None:
        """Dispatch one :class:`~repro.flash.admitpath.AdmissionPlan`.

        Walks the plan batch by batch in the order :meth:`process_now`
        produces, minus the heap and the per-request admission
        bookkeeping the kernel already did.  The walk goes a slice of
        about ``_SLICE`` entries at a time (:meth:`_walk`), each ending
        at a batch start, so its Python lists stay bounded.  Every entry
        yields one played row and a batch's rows are contiguous, so
        the entry ``p`` of a plan starting at row ``base`` owns row
        ``base + p`` when it is a batch of its own.

        Under the statistical controller placement can call
        ``offer_conflict`` (:meth:`_offer_conflict`), which raises
        ``V`` and so moves later decisions above ``S``: the walk stops
        at a batch whose admission above ``S`` no longer holds, and the
        take is planned again (:meth:`_replan`) from there on.
        """
        starts = np.flatnonzero(plan.starts)
        n = len(plan)
        self._log.reserve(n)
        base = len(self._log)
        lo = 0
        while lo < n:
            end = int(starts.searchsorted(lo + _SLICE))
            hi = int(starts[end]) if end < starts.size else n
            stop = self._walk(plan, lo, hi, base + lo)
            if stop is None:
                lo = hi
                continue
            lo += stop
            plan = self._replan(plan, lo)
            if plan is None:
                return
            starts = np.flatnonzero(plan.starts)
            n = len(plan)
            self._log.reserve(n - lo)
        if obs.ACTIVE:
            session = obs.SESSION
            if plan.n_admitted:
                session.on_admission("admitted", plan.n_admitted)
            if plan.n_delayed:
                session.on_admission("delayed", plan.n_delayed)
            if plan.n_rejected:
                session.on_admission("rejected", plan.n_rejected)
        if self.replay is not None:
            self.replay.wakes.append(plan.times[starts])

    def _replan(self, plan, at: int):
        """Plan the take again after its entry ``at`` (a batch start)
        found an admission above ``S`` flipped by the ``V`` the walk
        raised.  The entries before ``at`` were decided on the ``V``
        their batches saw, so the new plan repeats them."""
        walk = self._stat_walk
        self.replans += 1
        try:
            new = self._vec.retake((walk.change_t, walk.change_v))
        except admitpath.DemotionRequired as exc:
            self._catch_up(plan, at, exc.reason)
            return None
        if at and (new is None or len(new) < at
                   or not np.array_equal(new.order[:at], plan.order[:at])):
            raise RuntimeError("a statistical re-plan changed the "
                               "entries already placed")
        if new is None:
            # nothing of the take is admitted after all
            self._stat_walk = None
        else:
            walk.reset(new, self.admission.violations)
        return new

    def _catch_up(self, plan, at: int, reason: str) -> None:
        """Hand a take to the scalar loop at its entry ``at``, exactly.

        The re-plan's spills were not exact on the kernel, which left
        the window at the take's start.  The session demotes from there
        with the controller as it was then, and replays the admissions
        of the batches before ``at`` -- already placed and logged -- on
        the scalar loop, each on the ``V`` it saw, leaving the heap and
        the controller where the loop would hold them at ``at``.
        """
        walk = self._stat_walk
        adm = self.admission
        v_now = adm.violations
        adm.adopt(self._vec.start_controller)
        self._demote(reason)
        self._stat_walk = None
        if self.replay is not None:
            self.replay.wakes.append(
                plan.times[np.flatnonzero(plan.starts[:at])])
        t_at = float(plan.times[at])
        heap = self.heap
        while heap and heap[0][0] < t_at:
            t = heap[0][0]
            i = bisect_left(walk.change_t, t)
            adm.violations = walk.change_v[i - 1] if i else walk.v0
            self._offer_batch(t, log=False)
        adm.violations = v_now

    def _walk(self, plan, lo: int, hi: int, row: int) -> Optional[int]:
        """Place plan entries ``[lo, hi)``, whose rows start at ``row``.

        An admitted singleton read with a live replica is placed in the
        loop and its row written by column when the slice ends, one
        :meth:`PlayedLog.write` (and one :meth:`FaultedReplay.\
submit_reads` under faults) for them all.  Its device is
        :meth:`_pick`'s and its times :meth:`_queue_read`'s, with one
        case inlined: a first live replica ``dev`` that is idle
        (``busy[dev] <= t``).  There ``_pick`` provably returns ``dev``
        (the first candidate within tolerance), the issue starts at
        ``t`` (``max(busy, t) == t``) and there is no conflict
        (``busy - t + service <= service <= accesses * service``), so
        placement collapses to one addition -- the same addition, on
        the same floats, and no ``offer_conflict``.  A read is flagged
        delayed when it was held (issued after ``t``) or delayed by
        budget earlier.  Rejected entries, unavailable reads, writes
        and batches of several requests take :meth:`_reject` and
        :meth:`_place`, which log their rows one by one at the log's
        cursor.

        Under the statistical controller, once ``V`` has moved past
        what the plan assumed, each batch holding an admission above
        ``S`` is re-checked with the controller's own ``Q`` before it
        is placed (:meth:`_admits_above`).  Returns the slice position
        of the first batch that fails, having placed everything before
        it, or ``None`` when the slice is done.
        """
        order = plan.order[lo:hi]
        times = plan.times[lo:hi].tolist()
        admitted = plan.admitted[lo:hi].tolist()
        bounds = np.flatnonzero(plan.starts[lo:hi]).tolist()
        bounds.append(hi - lo)
        segs = self._mask_at.searchsorted(plan.times[lo:hi],
                                          side="right").tolist()
        buckets = self.buckets[order].tolist()
        reads = self.is_read[order].tolist()
        busy = self.busy_until
        service = self.service
        live = self._live
        pick = self._pick
        queue_read = self._queue_read
        # busy <= t rules out a conflict only while one service fits
        # the guarantee; otherwise every read takes _queue_read.
        inline = service <= self.player.accesses * service + 1e-12
        # entries admitted above S, and the next of them (the slice
        # end when there are none)
        walk = self._stat_walk
        over: List[int] = []
        if walk is not None:
            over = np.flatnonzero(
                plan.admitted[lo:hi]
                & (plan.counts[lo:hi] > self.admission.limit)).tolist()
        n_over = len(over)
        p = 0
        nxt = over[0] if over else hi - lo
        at: List[int] = []
        devs: List[int] = []
        issued: List[float] = []
        began: List[float] = []
        done: List[float] = []
        cands: List[Tuple[int, ...]] = []
        stop = None
        for i, j in zip(bounds, bounds[1:]):
            if nxt < j:
                q = p
                while p < n_over and over[p] < j:
                    p += 1
                nxt = over[p] if p < n_over else hi - lo
                if self.admission.violations > walk.v_plan and \
                        not self._admits_above(plan, lo + j - 1,
                                               [lo + e for e in over[q:p]]):
                    stop = i
                    break
            if j - i == 1 and admitted[i] and reads[i]:
                t = times[i]
                bucket = buckets[i]
                seg = segs[i]
                cs = live[seg].get(bucket) or \
                    self._live_replicas(seg, bucket)
                if cs:
                    dev = cs[0]
                    if inline and busy[dev] <= t:
                        busy[dev] = t + service
                        issued.append(t)
                        began.append(t)
                    else:
                        if walk is not None:
                            walk.at = lo + i
                        dev = pick(cs, t)
                        issue_at, started, _ = queue_read(dev, t)
                        issued.append(issue_at)
                        began.append(started)
                    at.append(i)
                    devs.append(dev)
                    done.append(busy[dev])
                    cands.append(cs)
                    continue
            self._log.seek(row + i)
            idx = int(plan.intervals[lo + i])
            b = i
            while b < j and not admitted[b]:
                self._reject(int(order[b]), idx)
                b += 1
            if b < j:
                if walk is not None:
                    walk.at = lo + j - 1
                self._place(order[b:j].tolist(), times[i], idx, segs[i])
        self._log.seek(row + (hi - lo if stop is None else stop))
        if at:
            self._write_reads(plan, lo, row, at, devs, issued, began,
                              done, cands)
        return stop

    def _admits_above(self, plan, last: int, entries: List[int]) -> bool:
        """Whether a batch's admissions above ``S`` (plan ``entries``)
        still hold on the ``V`` now: ``Q`` at each one's size, with the
        controller brought to the batch (``last`` its final entry)."""
        self._sync_admission(int(plan.intervals[last]),
                             int(plan.counts[last]))
        adm = self.admission
        for e in entries:
            if not adm.violation_probability(int(plan.counts[e])) \
                    < adm.epsilon:
                return False
        return True

    def _write_reads(self, plan, lo: int, row: int, at: List[int],
                     devs: List[int], issued: List[float],
                     began: List[float], done: List[float],
                     cands: List[Tuple[int, ...]]) -> None:
        """Write the rows of the reads :meth:`_walk` placed in its
        loop: entries ``lo + at`` of ``plan``, rows ``row + at``."""
        n = len(at)
        entry = np.fromiter(at, np.int64, n)
        rows = entry + row
        entry += lo
        orig = plan.order[entry]
        t = plan.times[entry]
        issue = np.fromiter(issued, np.float64, n)
        device = np.fromiter(devs, np.int64, n)
        arrival = self.arrivals[orig]
        columns = {
            "arrival": arrival, "bucket": self.buckets[orig],
            "is_read": True, "interval": plan.intervals[entry],
            "index": orig,
            "flags": np.where((issue > t) | (arrival + 1e-9 < t),
                              DELAYED, 0)}
        if self.replay is None:
            columns.update(issued=issue, enqueued=issue,
                           started=np.fromiter(began, np.float64, n),
                           completed=np.fromiter(done, np.float64, n),
                           device=device)
        else:
            # served later: placeholders the replay fills in
            columns["device"] = -1
            self.replay.submit_reads(rows, device, issue, t, cands)
        self._log.write(rows, columns)

    def drain(self) -> Tuple[IntervalSeries, PlayedTable]:
        """Process everything pending and close the session."""
        if self._drained:
            raise RuntimeError("session already drained")
        self._drained = True
        player = self.player
        if self.fast:
            if self._vec is not None:
                self._advance_vector(None)
            while self.heap:
                self.process_now(self.heap[0][0])
            if self.replay is not None:
                self.replay.run(self._log)
        else:
            env = self.env

            def run():
                while self.heap:
                    t_eff = self.heap[0][0]
                    if t_eff > env.now:
                        yield env.timeout_until(t_eff)
                    self.process_now(env.now)

            env.process(run())
            env.run()
            _fill_from_ios(self._log, self._pending_ios)
            self._pending_ios = []

        return _finish_play(self._log.close(),
                            player.allocation.n_devices,
                            player.interval_ms)
