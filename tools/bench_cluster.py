#!/usr/bin/env python3
"""Benchmark the sharded cluster against a single array.

Measures shard-scaling throughput and writes ``BENCH_cluster.json``
at the repo root:

1. **single**: the whole synthetic workload through a 1-array
   cluster -- the same routing/mining/playback pipeline, one shard.
2. **cluster**: the same workload through a 4-array consistent-hash
   cluster with 2x cross-array replication, each array a parallel
   runner cell.

Both stands run through ``ShardedCluster.play(parts, runner=...)``
over one shared worker pool, so the comparison isolates sharding
(4 quarter-load cells vs 1 full-load cell), not pipeline overheads.
Every cluster run's ``ClusterReport.fingerprint()`` must be
byte-identical across repeats -- the double-run determinism
criterion -- or the bench aborts.  ``--scale full`` replays a
multi-million-request workload.

Every run also appends a dated one-line summary to
``BENCH_trajectory.jsonl`` so the ``BENCH_*.json`` snapshots gain a
history (CI archives both).  The smoke scale writes neither file
unless asked: its report goes only to an explicit ``--json PATH`` and
its summary line only to an explicit ``--trajectory PATH``, so a
local smoke run never overwrites the committed snapshots.

Run after cluster or runner changes::

    PYTHONPATH=src python tools/bench_cluster.py [--jobs N]
        [--scale smoke|fast|full] [--min-shard-speedup X]
        [--json PATH] [--trajectory PATH]

``--min-shard-speedup`` turns a shard-scaling regression into a
non-zero exit; CI gates the smoke scale at 1.5x on its multi-core
runner (a single-core host serialises the cells and cannot pass).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

OUT = ROOT / "BENCH_cluster.json"
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"

#: workload sizes per --scale
SCALES = {
    "smoke": {"n_parts": 2, "per_part": 250_000, "repeats": 2},
    "fast": {"n_parts": 2, "per_part": 500_000, "repeats": 2},
    "full": {"n_parts": 4, "per_part": 600_000, "repeats": 2},
}

#: the bench cluster geometry (both stands differ only in n_arrays)
N_ARRAYS = 4
N_DEVICES = 9
BLOCK_POOL = 4096
#: 1ms QoS intervals keep per-interval driver overhead -- which every
#: shard pays over the full sim horizon -- negligible next to
#: per-request work, so the bench measures sharding, not bookkeeping.
INTERVAL_MS = 1.0
#: mean inter-arrival (ms); ~22 req/ms is just under one array's
#: nine-device drain rate, so the single stand runs saturated and
#: each quarter-load shard runs with headroom.
DT_LO, DT_HI = 0.035, 0.055
#: fraction of requests hammering designed hot pairs (adjacent in
#: time, so FIM mining sees them and mirroring actually engages)
HOT_FRAC = 0.04
HOT_SUPPORT = 100
MIN_SUPPORT = 20


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def make_parts(n_parts: int, per_part: int, seed: int = 0):
    """Synthetic multi-part trace: uniform traffic over a block pool
    plus time-adjacent hot-pair accesses for the replicator to mine."""
    import numpy as np

    from repro.traces.records import Trace

    rng = np.random.default_rng(seed)
    hot_pairs = [(BLOCK_POOL - 8 + 2 * i, BLOCK_POOL - 7 + 2 * i)
                 for i in range(4)]
    parts, t0 = [], 0.0
    for p in range(n_parts):
        dts = rng.uniform(DT_LO, DT_HI, size=per_part)
        arrivals = t0 + np.cumsum(dts)
        blocks = rng.integers(0, BLOCK_POOL - 8,
                              size=per_part).astype(np.int64)
        # hot accesses come in back-to-back pairs so they co-occur
        # inside the FIM window; the same pairs recur every part so
        # boundary-trained mirrors match the following traffic
        n_hot = int(HOT_FRAC * per_part) & ~1
        starts = rng.choice(per_part - 1, size=n_hot // 2,
                            replace=False)
        for i, pair in enumerate(hot_pairs):
            sel = starts[i::len(hot_pairs)]
            blocks[sel] = pair[0]
            blocks[sel + 1] = pair[1]
        parts.append(Trace.from_arrays(arrivals, blocks))
        t0 = float(arrivals[-1]) + 5.0
    return parts


def _config(n_arrays: int):
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        n_arrays=n_arrays, n_devices=N_DEVICES,
        interval_ms=INTERVAL_MS, cross_replication=2,
        hot_support=HOT_SUPPORT, min_support=MIN_SUPPORT)


def _play(n_arrays: int, parts, runner):
    from repro.cluster import ShardedCluster

    return ShardedCluster(_config(n_arrays)).play(parts,
                                                  runner=runner)


def bench_cluster(cfg: dict, jobs: int) -> dict:
    """Single-array vs 4-shard cluster over one shared worker pool."""
    from repro.runner import ParallelRunner

    parts = make_parts(cfg["n_parts"], cfg["per_part"])
    total = sum(len(p) for p in parts)
    runner = ParallelRunner(jobs=jobs, auto_degrade=False)

    timings = {}
    reports = {}
    fingerprints = {1: [], N_ARRAYS: []}
    for n_arrays in (1, N_ARRAYS):
        best = None
        for _ in range(cfg["repeats"]):
            report, seconds = _timed(_play, n_arrays, parts, runner)
            best = seconds if best is None else min(best, seconds)
            fingerprints[n_arrays].append(report.fingerprint())
        timings[n_arrays] = best
        reports[n_arrays] = report
    # double-run determinism: byte-identical cluster-wide roll-up
    for n_arrays, fps in fingerprints.items():
        if len(set(fps)) != 1:
            raise AssertionError(
                f"{n_arrays}-array cluster report diverged across "
                f"identical runs: {fps}")

    cluster = reports[N_ARRAYS]
    single = reports[1]
    last = cluster.audit[-1] if cluster.audit else None
    return {
        "workload": f"synthetic {cfg['n_parts']} parts x "
                    f"{cfg['per_part']} requests, "
                    f"hot_frac={HOT_FRAC}",
        "n_requests": total,
        "jobs": jobs,
        "single_seconds": round(timings[1], 6),
        "cluster_seconds": round(timings[N_ARRAYS], 6),
        "shard_speedup": round(timings[1] / timings[N_ARRAYS], 2),
        "single_rps": round(total / timings[1]),
        "cluster_rps": round(total / timings[N_ARRAYS]),
        "double_run_identical": True,
        "single_violation_rate": round(single.violation_rate, 6),
        "cluster_violation_rate": round(cluster.violation_rate, 6),
        "n_mirrored": last.n_mirrored if last else 0,
        "routed_reads": sum(cluster.routed),
        "n_unrouted": cluster.n_unrouted,
    }


def _gate(report: dict, args) -> int:
    """Apply the CI regression gates; returns the exit code."""
    failures = []
    if args.min_shard_speedup is not None:
        speedup = report["cluster"]["shard_speedup"]
        if speedup < args.min_shard_speedup:
            failures.append(
                f"shard-scaling speedup {speedup}x is below the "
                f"{args.min_shard_speedup}x gate")
    for line in failures:
        print(f"GATE FAILED: {line}", file=sys.stderr)
    return 1 if failures else 0


def _append_trajectory(report: dict, path: Path) -> None:
    """Append one dated summary line (JSONL) for bench history."""
    import datetime

    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "scale": report["scale"],
        "cluster_n_requests": report["cluster"]["n_requests"],
        "cluster_shard_speedup": report["cluster"]["shard_speedup"],
        "cluster_rps": report["cluster"]["cluster_rps"],
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="smoke")
    parser.add_argument("--full", action="store_true",
                        help="alias for --scale full (multi-million-"
                             "request workload, slow)")
    parser.add_argument("--min-shard-speedup", type=float,
                        default=None, metavar="X",
                        help="exit non-zero if the 4-shard cluster "
                             "fails to beat the single array by X")
    parser.add_argument("--json", type=Path, default=None,
                        metavar="PATH",
                        help="write the report here (default: "
                             "BENCH_cluster.json, nowhere at the "
                             "smoke scale)")
    parser.add_argument("--trajectory", type=Path, default=None,
                        metavar="PATH",
                        help="bench-history JSONL to append a dated "
                             "summary line to (default: "
                             "BENCH_trajectory.jsonl, nowhere at the "
                             "smoke scale)")
    parser.add_argument("--no-trajectory", action="store_true",
                        help="skip the bench-history append")
    args = parser.parse_args(argv)
    scale = "full" if args.full else args.scale
    cfg = SCALES[scale]

    report = {
        "host": {"cpus": os.cpu_count(),
                 "python": sys.version.split()[0]},
        "scale": scale,
        "cluster": bench_cluster(cfg, args.jobs),
    }
    print(json.dumps(report, indent=2))
    smoke = scale == "smoke"
    out = args.json or (None if smoke else OUT)
    if out:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwritten to {out}")
    trajectory = args.trajectory or (None if smoke else TRAJECTORY)
    if trajectory and not args.no_trajectory:
        _append_trajectory(report, trajectory)
        print(f"trajectory appended to {trajectory}")
    return _gate(report, args)


if __name__ == "__main__":
    sys.exit(main())
