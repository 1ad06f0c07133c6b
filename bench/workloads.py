"""The benchmark's four closed-loop workloads.

Every workload has the same steps, which :mod:`bench.repeat` runs in
this order in a fresh process:

``generate(seed, size)``
    the inputs, from the seed alone, outside every timed region.  The
    library receives only these arrays.
``build(inputs, size)``
    the system objects; timed as part of ``setup_s``.
``play(system, inputs)``
    the timed region: one play-through, then reading the summary
    fields the benchmark prints.  Each library call returns before the
    next one starts (a closed loop with a single client).
``identity(played)`` / ``census(system, inputs, played)``
    the per-request fingerprint and request count, and per-layer
    counts, outside the timed region.

Each workload's ``sizes`` are keyed by ``--scale``.  The ``full``
sizes keep one repeat to a few seconds and under about 1 GB of
resident memory on a 2-core host; ``smoke`` only exercises the code.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterConfig, ShardedCluster
from repro.controller import ControllerConfig, ReplicationController
from repro.core.qos import QoSFlashArray, QoSReport
from repro.faults import FaultModel
from repro.flash.driver import OnlineTracePlayer
from repro.mining.matching import MatchResult
from repro.traces.exchange import exchange_like_trace
from repro.traces.records import Trace

#: requests the fast-path-equals-DES check replays, per workload
PREFIX_REQUESTS = 8000


@dataclass
class Played:
    """What one timed play-through hands back to the repeat."""

    report: object
    n_requests: int
    summary: Dict[str, float]
    #: wall seconds of each ``feed`` + ``advance`` call (stream only)
    chunk_s: Optional[List[float]] = None


def request_fingerprint(played: Sequence) -> str:
    """sha256 over the per-request columns ``_array_result`` hashes
    for a cluster array, so single-array runs get the same identity."""
    h = hashlib.sha256()
    if played:
        floats = np.array(
            [[p.io.arrival, p.io.issued_at, p.io.completed_at,
              p.io.response_ms, p.io.total_ms] for p in played],
            dtype=np.float64)
        ints = np.array(
            [[p.interval, p.io.device, p.io.retries, int(p.delayed),
              int(p.rejected), int(p.failed),
              int(getattr(p.io, "faulted", False))] for p in played],
            dtype=np.int64)
        h.update(floats.tobytes())
        h.update(ints.tobytes())
    return h.hexdigest()


def _identity(report: QoSReport) -> Tuple[str, int]:
    return request_fingerprint(report.requests), len(report.requests)


def _summary(report, n_requests: int) -> Dict[str, float]:
    """The summary fields read inside the timed region.

    ``ClusterReport.n_failed`` already counts unrouted reads, so
    ``fail_frac`` is ``(n_failed + n_unrouted) / n_requests`` for both
    report types.
    """
    overall = report.overall
    return {"sim_p99_ms": overall.percentile(99),
            "violation_rate": report.violation_rate,
            "pct_delayed": report.pct_delayed,
            "fail_frac": report.n_failed / n_requests,
            "n_faulted": report.n_faulted}


def _exchange_parts(size: Dict, seed: int) -> List[Trace]:
    """The Exchange-like trace, cut after ``size["n_requests"]``.

    The generator's request count varies by about 2% with the seed.
    Cutting every seed to the same count keeps the number of objects a
    run allocates, and so the number of full garbage collections it
    pays for, the same across seeds; uncut, one collection more or
    less moved ``rps`` by 10% from seed to seed.
    """
    parts = exchange_like_trace(scale=size["scale"], seed=seed,
                                n_intervals=size["n_intervals"])
    out, left = [], size["n_requests"]
    for part in parts:
        if left <= 0:
            break
        out.append(part[:left])
        left -= len(out[-1])
    return out


def _exchange_stream(size: Dict,
                     seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The cut Exchange-like trace as one arrival-sorted stream."""
    trace = Trace.concat(_exchange_parts(size, seed))
    order = np.argsort(trace.arrival_ms, kind="stable")
    return (np.ascontiguousarray(trace.arrival_ms[order]),
            np.ascontiguousarray(trace.block[order]))


def _modulo_buckets(blocks: np.ndarray, n_buckets: int) -> np.ndarray:
    """Design buckets by the matcher's fallback rule, precomputed."""
    return np.asarray(MatchResult.empty(n_buckets).map_blocks(blocks),
                      dtype=np.int64)


def _chunks(arrivals: np.ndarray, buckets: np.ndarray,
            chunk_ms: float) -> List[Tuple[np.ndarray, np.ndarray, float]]:
    """``(arrivals, buckets, chunk_end)`` per ``chunk_ms`` of sim time,
    covering every request."""
    n_chunks = int(arrivals[-1] // chunk_ms) + 1
    ends = np.arange(1, n_chunks + 1) * chunk_ms
    edges = np.concatenate(
        ([0], np.searchsorted(arrivals, ends, side="left")))
    return [(arrivals[edges[i]:edges[i + 1]],
             buckets[edges[i]:edges[i + 1]], float(ends[i]))
            for i in range(n_chunks)]


def _play_chunked(player: OnlineTracePlayer, chunks):
    """Feed + advance per chunk, then drain; per-chunk wall seconds."""
    session = player.session()
    chunk_s = []
    for arrivals, buckets, end in chunks:
        c0 = time.perf_counter()
        session.feed(arrivals, buckets)
        session.advance(end)
        chunk_s.append(time.perf_counter() - c0)
    series, played = session.drain()
    return series, played, chunk_s


class ClusterHot:
    """``ShardedCluster.play``, serial path, default router sync."""

    sizes = {
        "full": {"n_parts": 4, "per_part": 25_000,
                 "hot_support": 50, "min_support": 20},
        "smoke": {"n_parts": 4, "per_part": 2_000,
                  "hot_support": 4, "min_support": 2},
    }
    #: the bench cluster geometry of ``tools/bench_cluster.py``
    BLOCK_POOL = 4096
    #: ~22 req/ms over four 9-device arrays: each shard has headroom
    DT_LO, DT_HI = 0.035, 0.055
    #: share of requests in time-adjacent hot pairs, which FIM mining
    #: finds and the replicator mirrors
    HOT_FRAC = 0.04

    def generate(self, seed: int, size: Dict) -> List[Trace]:
        rng = np.random.default_rng(seed)
        pool = self.BLOCK_POOL
        hot_pairs = [(pool - 8 + 2 * i, pool - 7 + 2 * i)
                     for i in range(4)]
        per_part = size["per_part"]
        parts, t0 = [], 0.0
        for _ in range(size["n_parts"]):
            arrivals = t0 + np.cumsum(
                rng.uniform(self.DT_LO, self.DT_HI, size=per_part))
            blocks = rng.integers(0, pool - 8,
                                  size=per_part).astype(np.int64)
            # the same pairs recur every part, back to back, so they
            # share a FIM window and boundary-trained mirrors match
            # the next part's traffic
            n_hot = int(self.HOT_FRAC * per_part) & ~1
            starts = rng.choice(per_part - 1, size=n_hot // 2,
                                replace=False)
            for i, (a, b) in enumerate(hot_pairs):
                sel = starts[i::len(hot_pairs)]
                blocks[sel] = a
                blocks[sel + 1] = b
            parts.append(Trace.from_arrays(arrivals, blocks))
            t0 = float(arrivals[-1]) + 5.0
        return parts

    def build(self, parts, size: Dict) -> ShardedCluster:
        return ShardedCluster(ClusterConfig(
            n_arrays=4, n_devices=9, interval_ms=1.0, n_blocks=1 << 14,
            cross_replication=2, hot_support=size["hot_support"],
            min_support=size["min_support"]))

    def play(self, cluster: ShardedCluster, parts) -> Played:
        report = cluster.play(parts)
        n = sum(len(p) for p in parts)
        return Played(report, n, _summary(report, n))

    def identity(self, played: Played) -> Tuple[str, int]:
        return played.report.fingerprint(), played.report.n_requests

    def census(self, cluster, parts, played: Played) -> Dict[str, float]:
        report = played.report
        return {"cluster.routed_reads": sum(report.routed),
                "cluster.mirrored_blocks":
                    report.audit[-1].n_mirrored if report.audit else 0}


class ControllerExchange:
    """``ReplicationController.run`` with adaptive statistical QoS.

    Exchange ×2 over 96 intervals holds half the requests per interval
    of Exchange ×4, so the 56K-request cut still spans about 90
    intervals, and the controller mines and replans at each boundary.
    """

    sizes = {
        "full": {"scale": 2.0, "n_intervals": 96, "n_requests": 56_000},
        "smoke": {"scale": 1.0, "n_intervals": 8, "n_requests": 2_000},
    }

    def generate(self, seed: int, size: Dict) -> List[Trace]:
        return _exchange_parts(size, seed)

    def build(self, parts, size: Dict) -> ReplicationController:
        controller = ReplicationController(ControllerConfig(
            n_devices=9, epsilon=0.05, adapt_target_delayed_pct=5.0))
        # the P_k sampler is set-up work: run it before timing
        controller.qos.probabilities()
        return controller

    def play(self, controller: ReplicationController, parts) -> Played:
        out = controller.run(parts)
        n = sum(len(p) for p in parts)
        return Played(out, n, _summary(out.report, n))

    def identity(self, played: Played) -> Tuple[str, int]:
        return _identity(played.report.report)

    def census(self, controller, parts, played: Played) -> Dict[str, float]:
        audit = played.report.audit
        applied = sum(a.deltas_applied for a in audit)
        proposed = applied + sum(a.deltas_deferred + a.deltas_blocked
                                 for a in audit)
        return {"controller.deltas_applied": applied,
                "controller.delta_apply_frac":
                    applied / proposed if proposed else 0.0,
                "mining.match_rate":
                    statistics.fmean(a.match_rate for a in audit)
                    if audit else 0.0}


@dataclass
class StreamInputs:
    arrivals: np.ndarray
    buckets: np.ndarray
    chunks: List[Tuple[np.ndarray, np.ndarray, float]]


class StreamChunked:
    """One 9-device array fed through ``OnlineTracePlayer.session()``
    in ``chunk_ms`` slices of simulated time."""

    sizes = {
        "full": {"scale": 4.0, "n_intervals": 48, "n_requests": 56_000,
                 "chunk_ms": 2.0},
        "smoke": {"scale": 1.0, "n_intervals": 8, "n_requests": 2_000,
                  "chunk_ms": 2.0},
    }
    N_DEVICES = 9

    def generate(self, seed: int, size: Dict) -> StreamInputs:
        arrivals, blocks = _exchange_stream(size, seed)
        n_buckets = QoSFlashArray(n_devices=self.N_DEVICES).n_buckets
        buckets = _modulo_buckets(blocks, n_buckets)
        return StreamInputs(arrivals, buckets,
                            _chunks(arrivals, buckets, size["chunk_ms"]))

    @staticmethod
    def _player(qos: QoSFlashArray, engine: str = "auto"):
        return OnlineTracePlayer(qos.allocation, qos.interval_ms,
                                 accesses=qos.accesses, params=qos.params,
                                 engine=engine)

    def build(self, inputs: StreamInputs, size: Dict):
        qos = QoSFlashArray(n_devices=self.N_DEVICES)
        return qos, self._player(qos)

    def play(self, system, inputs: StreamInputs) -> Played:
        qos, player = system
        series, played, chunk_s = _play_chunked(player, inputs.chunks)
        report = QoSReport(series, played, qos.guarantee_ms)
        n = len(inputs.arrivals)
        return Played(report, n, _summary(report, n), chunk_s=chunk_s)

    def identity(self, played: Played) -> Tuple[str, int]:
        return _identity(played.report)

    def census(self, system, inputs, played: Played) -> Dict[str, float]:
        return {}

    def prefix_check(self, inputs: StreamInputs, size: Dict) -> bool:
        """Chunked fast path == one-shot DES on a prefix."""
        n = min(PREFIX_REQUESTS, len(inputs.arrivals))
        arrivals, buckets = inputs.arrivals[:n], inputs.buckets[:n]
        qos = QoSFlashArray(n_devices=self.N_DEVICES)
        _, fast, _ = _play_chunked(
            self._player(qos), _chunks(arrivals, buckets,
                                       size["chunk_ms"]))
        _, des = self._player(qos, engine="des").play(
            arrivals.tolist(), buckets.tolist())
        return request_fingerprint(fast) == request_fingerprint(des)


@dataclass
class FaultedInputs:
    arrivals: np.ndarray
    buckets: np.ndarray
    reads: np.ndarray
    faults: object


class ArrayFaultedRW:
    """``QoSFlashArray.run_online`` with 10% writes and a stochastic
    fault schedule."""

    sizes = {
        "full": {"scale": 2.0, "n_intervals": 96, "n_requests": 56_000},
        "smoke": {"scale": 1.0, "n_intervals": 8, "n_requests": 2_000},
    }
    N_DEVICES = 9
    WRITE_FRAC = 0.10
    FAULTS = FaultModel(crash_prob=0.35, down_rate=2e-3, down_mean_ms=2,
                        slow_rate=4e-3, slow_mean_ms=5, error_rate=2e-3,
                        error_mean_ms=3, error_prob=0.3)

    def generate(self, seed: int, size: Dict) -> FaultedInputs:
        arrivals, blocks = _exchange_stream(size, seed)
        n_buckets = QoSFlashArray(n_devices=self.N_DEVICES).n_buckets
        # a substream of its own, so the mask does not depend on how
        # many draws the trace generator made
        rng = np.random.default_rng([seed, 1])
        reads = rng.random(len(arrivals)) >= self.WRITE_FRAC
        faults = self.FAULTS.materialize(
            self.N_DEVICES, float(arrivals[-1]), seed)
        return FaultedInputs(arrivals, _modulo_buckets(blocks, n_buckets),
                             reads, faults)

    def build(self, inputs: FaultedInputs, size: Dict,
              engine: str = "auto") -> QoSFlashArray:
        return QoSFlashArray(n_devices=self.N_DEVICES,
                             faults=inputs.faults, engine=engine)

    def play(self, qos: QoSFlashArray, inputs: FaultedInputs) -> Played:
        report = qos.run_online(inputs.arrivals, inputs.buckets,
                                reads=inputs.reads)
        n = len(inputs.arrivals)
        return Played(report, n, _summary(report, n))

    def identity(self, played: Played) -> Tuple[str, int]:
        return _identity(played.report)

    def census(self, qos, inputs: FaultedInputs,
               played: Played) -> Dict[str, float]:
        return {"faults.events": len(inputs.faults)}

    def prefix_check(self, inputs: FaultedInputs, size: Dict) -> bool:
        """Fast faulted replay == DES on a prefix."""
        n = min(PREFIX_REQUESTS, len(inputs.arrivals))
        prefix = FaultedInputs(inputs.arrivals[:n], inputs.buckets[:n],
                               inputs.reads[:n], inputs.faults)
        fast, des = (self.play(self.build(prefix, size, engine), prefix)
                     for engine in ("auto", "des"))
        return (request_fingerprint(fast.report.requests)
                == request_fingerprint(des.report.requests))


WORKLOADS = {
    "cluster_hot": ClusterHot(),
    "controller_exchange": ControllerExchange(),
    "stream_chunked": StreamChunked(),
    "array_faulted_rw": ArrayFaultedRW(),
}
