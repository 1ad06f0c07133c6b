"""``ShardedCluster``: N independent QoS arrays behind one front door.

Scale-out happens in three composable layers:

1. **Sharding** (:mod:`repro.cluster.sharding`) gives every data block
   a *home array*; each array runs the full single-array stack --
   FIM matching through its own
   :class:`~repro.controller.boundary.BoundaryStep` (the live
   controller's), admission control, the byte-identical playback
   engines, module-level fault injection.
2. **Cross-array replication** (:mod:`repro.cluster.replicator`)
   mirrors hot blocks onto secondary arrays under a migration budget,
   reusing :class:`repro.controller.ReplicationPlanner` verbatim.
3. **Routing** (:mod:`repro.cluster.routing`) sends each read of a
   replicated block to the least-loaded *live* replica array, failing
   over when :mod:`repro.faults` kills a whole array.

Determinism contracts (enforced by tests and the ``cluster`` probe):

* **1-shard identity** -- a 1-array cluster replays
  :func:`repro.experiments.common.play_workload` byte for byte: with
  one array, routing is the identity, the array's boundary step mines
  each part with the offline rule (an empty part resets it to the
  modulo fallback, as offline), and the streaming session's chunking
  invariance makes feed-per-part equal feed-once.
* **Mode identity** -- the serial streaming path and the
  parallel-runner cell path produce identical
  :class:`ClusterReport` fingerprints when routing runs open-loop
  (``router_sync=False``): routing is then a pure function of the
  trace, and per-array playback is embarrassingly parallel.
* **Dispatch atomicity** -- array-scoped faults act on *routing
  only*: a request dispatched to an array before the fault instant
  completes normally, so killing fewer replica arrays than a pattern
  holds never fails one of its reads, and per-array QoS reports stay
  well-formed (no mid-flight corruption to merge around).

Roll-up: the per-array :class:`~repro.flash.metrics.IntervalSeries`
merge, in array order, into one cluster-wide series -- the left fold
of the per-array states.  Histogram counts, extremes, sample and delay
totals equal those of one series over every array's samples; the
moments (hence ``avg``/``std`` bits) depend on the merge order, which
is fixed, so the roll-up is deterministic.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cluster.replicator import CrossArrayReplicator
from repro.cluster.routing import ReplicaRouter
from repro.cluster.sharding import Sharding, make_sharding
from repro.controller.boundary import BoundaryStep
from repro.controller.planner import pair_support_by_block
from repro.core.qos import QoSFlashArray, QoSReport
from repro.faults import FaultSchedule
from repro.flash.metrics import IntervalSeries
from repro.flash.played import PlayedTable
from repro.mining.apriori import apriori
from repro.mining.transactions import check_window_ms, \
    transactions_from_trace
from repro.obs.series import ModuleSeries, module_interval_series, \
    queue_depth
from repro.traces.records import Trace, check_part_arrivals

__all__ = ["ClusterConfig", "ShardedCluster", "ClusterReport",
           "ArrayResult", "BoundaryRecord"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`ShardedCluster` needs, in one record.

    The per-array knobs mirror :class:`~repro.core.qos.QoSFlashArray`
    (so the 1-shard identity contract is like-for-like); the cluster
    knobs add sharding, cross-array replication and routing.
    """

    n_arrays: int = 4
    n_devices: int = 9
    replication: int = 3
    interval_ms: float = 0.133
    epsilon: float = 0.0
    accesses: Optional[int] = None
    seed: int = 0
    engine: str = "auto"
    #: ``"hash"`` (consistent-hash ring, default) or ``"range"``
    sharding: str = "hash"
    #: block-space size for range sharding (ignored for hash): every
    #: block played must lie in ``[0, n_blocks)``
    n_blocks: int = 1 << 16
    #: virtual nodes per array on the hash ring
    vnodes: int = 64
    #: replica arrays per hot block including the home (2 = one
    #: mirror); clamped to ``n_arrays``
    cross_replication: int = 2
    #: cross-array mirror moves applied per boundary per mirror rank;
    #: ``None`` = unlimited
    migration_budget: Optional[int] = None
    #: minimum mined pair support for a block to earn a mirror
    hot_support: int = 2
    fim_window_ms: float = 0.133
    min_support: int = 1

    def __post_init__(self):
        if self.n_arrays < 1:
            raise ValueError("n_arrays must be >= 1")
        if self.cross_replication < 1:
            raise ValueError("cross_replication must be >= 1")
        if self.hot_support < 1:
            raise ValueError("hot_support must be >= 1")
        check_window_ms(self.fim_window_ms, "fim_window_ms")

    @property
    def effective_cross_replication(self) -> int:
        return min(self.cross_replication, self.n_arrays)

    def make_sharding(self) -> Sharding:
        return make_sharding(self.sharding, self.n_arrays,
                             n_blocks=self.n_blocks,
                             vnodes=self.vnodes)


def _array_faults(faults: Optional[FaultSchedule], array: int,
                  n_devices: int) -> Optional[FaultSchedule]:
    """The module-scope restriction of a cluster schedule to one
    array (array ``a`` owns global modules ``[a*n, (a+1)*n)``)."""
    if faults is None:
        return None
    return faults.for_array(array, array * n_devices, n_devices)


def _check_part_blocks(part_idx: int, blocks, n_blocks: int) -> None:
    """Refuse a part with a block outside ``[0, n_blocks)``, naming
    the part and the first bad index: range sharding would send it to
    an end array without complaint."""
    blocks = np.asarray(blocks)
    bad = np.flatnonzero((blocks < 0) | (blocks >= n_blocks))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"part {part_idx}: block {i} ({int(blocks[i])}) lies "
            f"outside the range-sharded block space [0, {n_blocks})")


def _make_qos(config: ClusterConfig,
              faults: Optional[FaultSchedule]) -> QoSFlashArray:
    return QoSFlashArray(
        n_devices=config.n_devices, replication=config.replication,
        interval_ms=config.interval_ms, accesses=config.accesses,
        epsilon=config.epsilon, seed=config.seed,
        engine=config.engine, faults=faults)


@dataclass
class ArrayResult:
    """One array's contribution to a cluster play-through.

    ``fingerprint`` hashes the full per-request detail columns inside
    the producing process, so cross-mode and double-run identity
    checks never need to ship request lists across workers; ``report``
    carries them anyway in the serial path (``None`` from runner
    cells).
    """

    array: int
    series: IntervalSeries
    n_requests: int
    n_failed: int
    n_faulted: int
    n_delayed: int
    n_rejected: int
    n_violations: int
    fingerprint: str
    report: Optional[QoSReport] = None
    module_series: Optional[ModuleSeries] = None


def _array_result(array: int, series: IntervalSeries,
                  played: PlayedTable, guarantee_ms: float,
                  keep_requests: bool) -> ArrayResult:
    report = QoSReport(series, played, guarantee_ms)
    h = hashlib.sha256()
    if len(played):
        h.update(np.column_stack(
            (played.arrival, played.issued, played.completed,
             played.response_ms, played.total_ms)).tobytes())
        h.update(np.column_stack(
            (played.interval, played.device, played.retries,
             played.delayed, played.rejected, played.failed,
             played.faulted)).astype(np.int64).tobytes())
    counted = ~played.rejected
    return ArrayResult(
        array=array, series=series, n_requests=len(played),
        n_failed=report.n_failed, n_faulted=report.n_faulted,
        n_delayed=int(np.count_nonzero(played.delayed & counted)),
        n_rejected=len(played) - int(np.count_nonzero(counted)),
        n_violations=report.n_violations, fingerprint=h.hexdigest(),
        report=report if keep_requests else None)


def _cell_play_array(config: ClusterConfig, array: int,
                     arrivals: np.ndarray, buckets: np.ndarray,
                     faults_data: Optional[Dict]) -> ArrayResult:
    """One array's full playback -- the parallel runner's cell.

    Module-level and pure: the routed per-array trace comes in as
    plain columns, the per-array fault restriction is rebuilt in the
    worker, and the result is picklable summary state.  Equal to the
    serial streaming path by the session's chunking invariance.
    """
    faults = None
    if faults_data is not None:
        faults = _array_faults(FaultSchedule.from_dict(faults_data),
                               array, config.n_devices)
    qos = _make_qos(config, faults)
    series, played = qos.online_player().play(arrivals, buckets)
    return _array_result(array, series, played, qos.guarantee_ms,
                         keep_requests=False)


@dataclass(frozen=True)
class BoundaryRecord:
    """One part boundary's cluster decisions (audit trail)."""

    part: int
    boundary_ms: float
    n_hot: int
    n_mirrored: int
    moves_applied: int
    moves_deferred: int
    moves_blocked: int
    excluded_arrays: Tuple[int, ...] = ()


@dataclass
class ClusterReport:
    """Cluster-wide roll-up of one play-through.

    ``series`` is the per-array interval series merged in array
    order (the left fold, see :mod:`repro.flash.metrics`): its counts,
    extremes and totals equal a single report over the concatenated
    samples.  The per-request accounting (``n_failed``,
    ``n_violations``, ...) sums the per-array counts plus the reads the
    router could not place (``n_unrouted`` -- every replica array dead
    at arrival).
    """

    config: ClusterConfig
    guarantee_ms: float
    arrays: List[ArrayResult]
    n_unrouted: int
    routed: List[int]
    audit: List[BoundaryRecord] = field(default_factory=list)
    _rollup: Optional[IntervalSeries] = field(
        default=None, init=False, repr=False, compare=False)

    def _rolled_up(self) -> IntervalSeries:
        """The roll-up, merged once per report and shared by the
        readers below; never handed out, so no caller can write to it."""
        if self._rollup is None:
            merged = IntervalSeries()
            for ar in self.arrays:
                merged.merge(ar.series)
            self._rollup = merged
        return self._rollup

    @property
    def series(self) -> IntervalSeries:
        """The cluster-wide roll-up as a fresh series: writing to it
        leaves this report unchanged."""
        return copy.copy(self._rolled_up())

    @property
    def overall(self):
        return self._rolled_up().overall()

    @property
    def n_requests(self) -> int:
        return sum(ar.n_requests for ar in self.arrays) \
            + self.n_unrouted

    @property
    def n_failed(self) -> int:
        return sum(ar.n_failed for ar in self.arrays) \
            + self.n_unrouted

    @property
    def n_faulted(self) -> int:
        return sum(ar.n_faulted for ar in self.arrays)

    @property
    def n_rejected(self) -> int:
        return sum(ar.n_rejected for ar in self.arrays)

    @property
    def n_violations(self) -> int:
        return sum(ar.n_violations for ar in self.arrays) \
            + self.n_unrouted

    @property
    def violation_rate(self) -> float:
        total = self.n_requests - self.n_rejected
        return self.n_violations / total if total else 0.0

    @property
    def guarantee_met(self) -> bool:
        if self.n_unrouted or self.n_failed:
            return False
        stats = self.overall
        return stats.n_total == 0 \
            or stats.max <= self.guarantee_ms + 1e-9

    @property
    def pct_delayed(self) -> float:
        total = sum(ar.n_requests for ar in self.arrays)
        delayed = sum(ar.n_delayed for ar in self.arrays)
        return 100.0 * delayed / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        stats = self.overall
        out = stats.summary()
        out["guarantee_ms"] = self.guarantee_ms
        out["guarantee_met"] = float(self.guarantee_met)
        out["n_arrays"] = float(len(self.arrays))
        out["n_unrouted"] = float(self.n_unrouted)
        if self.n_failed or self.n_faulted:
            out["n_failed"] = float(self.n_failed)
            out["n_faulted"] = float(self.n_faulted)
            out["violation_rate"] = self.violation_rate
        return out

    def fingerprint(self) -> str:
        """Byte-comparable identity of the whole play-through.

        Covers every per-request detail column (via the per-array
        fingerprints), the routing census and the unrouted count --
        the double-run determinism probe and the serial-vs-runner
        mode test compare exactly this.
        """
        h = hashlib.sha256()
        for ar in self.arrays:
            h.update(f"{ar.array}:{ar.n_requests}:"
                     f"{ar.fingerprint};".encode("ascii"))
        h.update(repr(self.routed).encode("ascii"))
        h.update(str(self.n_unrouted).encode("ascii"))
        return h.hexdigest()


class ShardedCluster:
    """N independent :class:`~repro.core.qos.QoSFlashArray` instances
    behind one request-facing API.

    Parameters
    ----------
    config:
        The :class:`ClusterConfig` in force.
    faults:
        Optional cluster-level :class:`repro.faults.FaultSchedule`.
        Module-scoped events use *global* module IDs (array ``a`` owns
        ``[a*n_devices, (a+1)*n_devices)``) and are restricted per
        array; array-scoped events (``scope="array"``) mask whole
        arrays out of routing (:meth:`~repro.faults.FaultSchedule.\
masked_arrays_at`) without ever touching in-flight playback.
    """

    def __init__(self, config: ClusterConfig,
                 faults: Optional[FaultSchedule] = None):
        self.config = config
        self.faults = faults
        self.sharding = config.make_sharding()
        self.arrays = [
            _make_qos(config, _array_faults(faults, a,
                                            config.n_devices))
            for a in range(config.n_arrays)]
        ref = self.arrays[0]
        self.guarantee_ms = ref.guarantee_ms
        #: aggregate service rate per array, for the router's decay
        self._drain_rate = config.n_devices / ref.params.read_ms

    # -- the play-through -------------------------------------------------
    def play(self, parts: Sequence[Trace], runner=None,
             router_sync: Optional[bool] = None) -> ClusterReport:
        """Play a multi-part workload through the cluster.

        Per part: at the boundary each array's boundary step mines
        the reads it was fed in the previous part (FIM matching, as
        in ``play_workload``), the cluster-wide hot set drives one
        budgeted
        :class:`~repro.cluster.replicator.CrossArrayReplicator` round,
        then every request is routed (home array, or the least-loaded
        live replica for mirrored reads) and fed to its array.

        ``runner`` switches per-array playback to parallel-runner
        cells; routing then runs open-loop (no boundary queue-depth
        sync, since playback state does not exist yet) and the result
        is byte-identical to the serial path with
        ``router_sync=False``.  ``router_sync`` is forced False with a
        runner.  In the serial path the sync reads each array's rows
        played so far, which only a fast-engine array without module
        faults has at a boundary (the DES plays at the drain, and the
        faulted replay fills its rows there): ``None`` syncs when
        every array can, and ``True`` raises ``ValueError`` naming the
        first array that cannot.

        Every part's arrivals must be finite times ``>= 0`` in
        non-decreasing order (routing replays router decisions in
        arrival order, and a part's first arrival is its boundary); a
        part that is not raises ``ValueError`` naming the part and the
        first bad index, before anything is routed.  Under range
        sharding, so does a part with a block outside
        ``[0, config.n_blocks)``.
        """
        cfg = self.config
        parts = list(parts)
        for part_idx, part in enumerate(parts):
            check_part_arrivals(part_idx, part.arrival_ms)
            if cfg.sharding == "range":
                _check_part_blocks(part_idx, part.block, cfg.n_blocks)
        router = ReplicaRouter(cfg.n_arrays, self._drain_rate)
        replicator = CrossArrayReplicator(
            cfg.n_arrays, self.sharding.array_of,
            cross_replication=cfg.effective_cross_replication,
            migration_budget=cfg.migration_budget)
        steps = [BoundaryStep(qos.allocation, cfg.fim_window_ms,
                              cfg.min_support) for qos in self.arrays]
        audit: List[BoundaryRecord] = []
        serial = runner is None
        sessions = [qos.online_player().session()
                    for qos in self.arrays] if serial else None
        router_sync = serial and self._sync_allowed(sessions, router_sync)
        #: per array, the played-row count at each router-sync
        #: boundary: the module series folds over these slices
        marks: List[List[int]] = [[] for _ in range(cfg.n_arrays)]
        #: per array, the (arrivals, buckets) fed, for the runner path
        feeds: List[List[Tuple[np.ndarray, List[int]]]] = \
            [[] for _ in range(cfg.n_arrays)]
        n_unrouted = 0

        for part_idx, part in enumerate(parts):
            boundary = float(part.arrival_ms[0]) if len(part) else 0.0
            if part_idx > 0:
                if router_sync:
                    for s in sessions:
                        s.advance(boundary)
                    self._sync_router(router, sessions, marks, boundary)
                for step in steps:
                    step.boundary()
                self._boundary_round(part_idx, boundary,
                                     parts[part_idx - 1], replicator,
                                     audit)
            dest, unrouted = self._route_part(part, router,
                                              replicator)
            n_unrouted += int(unrouted.sum())
            for a in range(cfg.n_arrays):
                sel = np.flatnonzero((dest == a) & ~unrouted)
                if sel.size == 0:
                    continue
                sub = part[sel]
                mapped = steps[a].feed(sub)
                if serial:
                    sessions[a].feed(sub.arrival_ms, mapped)
                else:
                    feeds[a].append((sub.arrival_ms, mapped))

        if serial:
            results = []
            for a, session in enumerate(sessions):
                series, played = session.drain()
                result = _array_result(a, series, played,
                                       self.guarantee_ms,
                                       keep_requests=True)
                result.module_series = self._module_series(played,
                                                           marks[a])
                results.append(result)
                if obs.ACTIVE:
                    obs.SESSION.record_qos_report(result.report)
        else:
            results = self._run_cells(runner, feeds)

        return ClusterReport(config=cfg,
                             guarantee_ms=self.guarantee_ms,
                             arrays=results,
                             n_unrouted=n_unrouted,
                             routed=list(router.routed),
                             audit=audit)

    # -- boundary work ----------------------------------------------------
    def _boundary_round(self, part_idx: int, boundary: float,
                        prev_part: Trace, replicator,
                        audit: List[BoundaryRecord]) -> None:
        """Run one replication round on the previous part's hot set.

        The hot set is mined over the *whole* part, not per array as
        each array's :class:`~repro.controller.boundary.BoundaryStep`
        mines: a hot pattern whose blocks home on different arrays
        never co-occurs in any one array's traffic.
        """
        cfg = self.config
        whole = apriori(
            transactions_from_trace(prev_part, cfg.fim_window_ms),
            cfg.min_support, max_size=2)
        hot = {b: s for b, s in pair_support_by_block(whole).items()
               if s >= cfg.hot_support}
        excluded: FrozenSet[int] = frozenset()
        if self.faults is not None:
            excluded = self.faults.masked_arrays_at(boundary)
        applied = deferred = blocked = 0
        if replicator.n_mirrors > 0:
            for plan in replicator.update(hot, excluded=excluded):
                applied += len(plan.applied)
                deferred += len(plan.deferred)
                blocked += len(plan.blocked)
        audit.append(BoundaryRecord(
            part=part_idx, boundary_ms=boundary, n_hot=len(hot),
            n_mirrored=len(replicator.mirror_table()),
            moves_applied=applied, moves_deferred=deferred,
            moves_blocked=blocked,
            excluded_arrays=tuple(sorted(excluded))))

    # -- routing ----------------------------------------------------------
    def _route_part(self, part: Trace, router: ReplicaRouter,
                    replicator: CrossArrayReplicator,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Destination array (and unrouted mask) for one part.

        Vectorized over the unique-block table; only mirrored reads
        walk the per-request router loop, so home-only traffic routes
        at numpy speed.  Requests must arrive time-sorted (trace parts
        are) so router decisions replay in arrival order.
        """
        cfg = self.config
        n = len(part)
        if n == 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=bool))
        blocks = np.asarray(part.block, dtype=np.int64)
        arrivals = np.asarray(part.arrival_ms, dtype=np.float64)
        uniq, inverse = np.unique(blocks, return_inverse=True)
        home_lut = np.asarray(
            self.sharding.array_of_many(uniq.tolist()),
            dtype=np.int64)
        dest = home_lut[inverse]
        unrouted = np.zeros(n, dtype=bool)

        mirror_table = replicator.mirror_table() \
            if replicator.n_mirrors > 0 else {}
        routed_by_router = np.zeros(n, dtype=bool)
        if mirror_table:
            replica_lut = {
                int(b): replicator.replicas(int(b))
                for b in uniq if int(b) in mirror_table}
            mirrored_uniq = np.fromiter(
                (int(b) in replica_lut for b in uniq),
                dtype=bool, count=uniq.size)
            candidates_mask = mirrored_uniq[inverse] \
                & np.asarray(part.is_read, dtype=bool)
            for i in np.flatnonzero(candidates_mask):
                t = float(arrivals[i])
                cands = replica_lut[int(blocks[i])]
                if self.faults is not None:
                    masked = self.faults.masked_arrays_at(t)
                    live = [a for a in cands if a not in masked]
                else:
                    live = list(cands)
                choice = router.route(live, t)
                routed_by_router[i] = True
                if choice is None:
                    unrouted[i] = True
                else:
                    dest[i] = choice

        # Home-only traffic: fail requests whose home array is masked
        # at arrival (dispatch-atomic: nothing already dispatched is
        # touched).  Segment-wise so the common healthy case stays
        # fully vectorized.
        if self.faults is not None:
            pts, masks = self.faults.array_mask_segments()
            if any(masks):
                seg = np.searchsorted(np.asarray(pts), arrivals,
                                      side="right")
                plain = ~routed_by_router
                for s in np.unique(seg):
                    dead = masks[s]
                    if not dead:
                        continue
                    sel = plain & (seg == s) \
                        & np.isin(dest, sorted(dead))
                    unrouted |= sel
        return dest, unrouted

    @staticmethod
    def _sync_allowed(sessions, router_sync: Optional[bool]) -> bool:
        """Resolve ``router_sync`` for the serial path: ``None`` syncs
        when every array has its played rows at a boundary, ``True``
        raises unless every array does."""
        for a, session in enumerate(sessions):
            if session.fast and session.replay is None:
                continue
            if router_sync:
                why = "replays module faults at the drain" \
                    if session.fast else "plays on the DES"
                raise ValueError(
                    f"router_sync=True needs every array's played rows "
                    f"at each boundary, but array {a} {why}")
            return False
        return router_sync is not False

    def _sync_router(self, router: ReplicaRouter, sessions,
                     marks: List[List[int]], boundary: float) -> None:
        """Re-anchor the router to measured boundary queue depths.

        Each array's depth is :func:`~repro.obs.series.queue_depth`
        of its rows played so far at the boundary's interval start --
        a pure function of played timestamps (exact whether or not
        observability is recording), so syncing never couples routing
        to ``repro.obs`` being enabled.  The row counts are kept in
        ``marks`` for :meth:`_module_series`.
        """
        cfg = self.config
        k = int(boundary / cfg.interval_ms + 1e-9)
        for a, session in enumerate(sessions):
            played = session.played
            marks[a].append(len(played))
            router.sync(a, queue_depth(played, k * cfg.interval_ms),
                        boundary)

    def _module_series(self, played: PlayedTable,
                       marks: List[int]) -> ModuleSeries:
        """One array's module series: the left fold of the per-slice
        series between router-sync boundaries (the fold, not one pass
        over the table, fixes the busy-time float order)."""
        cfg = self.config
        series = ModuleSeries(cfg.interval_ms, cfg.n_devices)
        for lo, hi in zip([0] + marks, marks + [len(played)]):
            series.merge(module_interval_series(
                played[lo:hi], cfg.n_devices, cfg.interval_ms))
        return series

    # -- parallel cells ---------------------------------------------------
    def _run_cells(self, runner, feeds) -> List[ArrayResult]:
        """Per-array playback as parallel-runner cells."""
        from repro.runner import Cell

        cfg = self.config
        faults_data = self.faults.to_dict() \
            if self.faults is not None else None
        cells = []
        for a, fed in enumerate(feeds):
            arr = np.concatenate([np.zeros(0)] + [t for t, _ in fed])
            buck = np.fromiter((b for _, chunk in fed for b in chunk),
                               dtype=np.int64)
            cells.append(Cell(
                "cluster", f"array{a}", _cell_play_array,
                (cfg, a, arr, buck, faults_data),
                cacheable=False))
        return list(runner.run(cells))
