"""Cluster experiment -- sharded scale-out vs a single array.

Not a paper artefact: the paper's framework is a single flash array;
this family measures what the scale-out layer (:mod:`repro.cluster`)
adds.  The same Exchange-like workload plays through four stands:

* **single** -- one array, the §V-D pipeline (the baseline every
  other stand's per-array playback is byte-compatible with).
* **hash** -- a consistent-hash sharded cluster with cross-array
  replication of hot FIM patterns and least-loaded replica routing.
* **range** -- the same cluster under range sharding (contiguous
  block ranges), isolating the sharding function's effect on balance.
* **hash+kill** -- the hash cluster with one whole array crashed
  mid-run (array-scoped fault): mirrored reads fail over, home-only
  traffic on the dead array is lost and accounted, and the roll-up
  stays well-formed.

Shards execute as parallel-runner cells (one per array), so the
cluster stands exercise the same worker pool as every other
experiment family.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster import ClusterConfig, ShardedCluster
from repro.experiments.common import ExperimentResult, play_workload
from repro.faults import FaultEvent, FaultSchedule
from repro.traces.exchange import EXCHANGE_N_BLOCKS, exchange_like_trace

__all__ = ["run", "STANDS", "cluster_report"]

#: stand slug -> (n_arrays, sharding kind, kill an array mid-run)
STANDS = {
    "single": (1, "hash", False),
    "hash": (4, "hash", False),
    "range": (4, "range", False),
    "hash+kill": (4, "hash", True),
}


def make_config(stand: str, n_devices: int, seed: int) -> ClusterConfig:
    """The :class:`ClusterConfig` behind one stand slug."""
    n_arrays, kind, _ = STANDS[stand]
    return ClusterConfig(
        n_arrays=n_arrays, n_devices=n_devices,
        sharding=kind, n_blocks=EXCHANGE_N_BLOCKS,
        cross_replication=min(2, n_arrays), seed=seed)


def make_faults(stand: str, config: ClusterConfig,
                kill_at_ms: float) -> Optional[FaultSchedule]:
    """The mid-run whole-array crash for the ``+kill`` stand."""
    if not STANDS[stand][2]:
        return None
    return FaultSchedule(
        [FaultEvent("crash", config.n_arrays - 1, kill_at_ms,
                    scope="array")],
        n_modules=config.n_arrays * config.n_devices)


def cluster_report(stand: str, parts, n_devices: int, seed: int,
                   runner=None):
    """Play the workload through one stand's cluster."""
    config = make_config(stand, n_devices, seed)
    total_ms = max(float(p.arrival_ms[-1]) for p in parts if len(p))
    faults = make_faults(stand, config, kill_at_ms=total_ms / 2)
    cluster = ShardedCluster(config, faults=faults)
    return cluster.play(parts, runner=runner)


def run(scale: float = 0.5, n_intervals: int = 8,
        n_devices: int = 9, seed: int = 0,
        runner=None) -> ExperimentResult:
    """Cluster-wide QoS per stand, one workload."""
    parts = exchange_like_trace(scale=scale, seed=seed,
                                n_intervals=n_intervals)
    single = play_workload(parts, n_devices=n_devices, seed=seed)
    rows: List[List[object]] = []
    for stand in STANDS:
        if stand == "single":
            # the baseline pipeline itself, so the table's first row
            # is directly comparable with the fig8/table3 families
            overall = single.report.overall
            rows.append([
                stand, 1, "-", round(overall.avg, 6),
                round(overall.max, 6), round(overall.pct_delayed, 2),
                0, 0, 0, single.report.n_violations,
                round(single.report.violation_rate, 6)])
            continue
        report = cluster_report(stand, parts, n_devices, seed,
                                runner=runner)
        overall = report.overall
        mirrored = max((b.n_mirrored for b in report.audit),
                       default=0)
        rows.append([
            stand, len(report.arrays), report.config.sharding,
            round(overall.avg, 6), round(overall.max, 6),
            round(report.pct_delayed, 2), mirrored,
            sum(report.routed), report.n_unrouted,
            report.n_violations,
            round(report.violation_rate, 6)])
    return ExperimentResult(
        name=f"Cluster -- sharded scale-out vs single array "
             f"(Exchange-like, scale={scale})",
        headers=["stand", "arrays", "sharding", "avg resp ms",
                 "max resp ms", "% delayed", "mirrored blocks",
                 "routed reads", "unrouted", "violations",
                 "violation rate"],
        rows=rows,
        notes="Shards execute as parallel-runner cells; per-shard "
              "interval series merge into the cluster-wide stats "
              "(mergeable histogram state, so the roll-up equals a "
              "single report over the concatenated samples).  The "
              "+kill stand crashes one whole array mid-run: mirrored "
              "reads fail over via the replica router, unmirrored "
              "reads homed on the dead array are lost and counted "
              "as violations.",
    )
