#!/usr/bin/env python3
"""Benchmark the live controller and write ``BENCH_controller.json``.

Measures the cost of closing the paper's loop online
(:mod:`repro.controller`) on the TPC-E-like workload:

1. **throughput** -- requests/second through the full live loop
   (stream + incremental mining + planning + mid-stream apply), per
   stand (static / adaptive), with the offline ``play_workload``
   pipeline on the same trace as the reference;
2. **mining overhead** -- wall time spent in the boundary step
   (:meth:`repro.controller.boundary.BoundaryStep.boundary`: mine +
   match + plan + re-map), per interval and as a fraction of the whole
   run -- the price of the loop itself.

Run after touching the controller, the boundary step or the streaming
session::

    PYTHONPATH=src python tools/bench_controller.py \
        [--repeats N] [--min-throughput RPS] [--smoke] [--json PATH]

``--min-throughput`` turns the adaptive stand's requests/sec into a
hard gate (exit 1 below the floor); ``--smoke`` shrinks the workload
(the report notes which scale produced it) and writes the report only
to an explicit ``--json PATH``, never over the committed full-mode
snapshot -- CI uses it with a conservative floor to catch
order-of-magnitude regressions and uploads that JSON as an artifact.
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

OUT = ROOT / "BENCH_controller.json"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _best(fn, repeats, *args, **kwargs) -> float:
    return min(_timed(fn, *args, **kwargs)[1] for _ in range(repeats))


def bench_loop(scale: float, n_intervals: int, repeats: int) -> dict:
    """Time the live loop per stand vs the offline pipeline."""
    from repro.controller import (
        ControllerConfig,
        ReplicationController,
        StaticPlacement,
    )
    from repro.experiments.common import play_workload
    from repro.experiments.fig8 import make_parts

    parts = make_parts("tpce", scale, n_intervals, 0)
    n = sum(len(p) for p in parts)
    config = ControllerConfig(n_devices=13, epsilon=0.05, seed=0)

    def live(strategy=None):
        return ReplicationController(config, strategy=strategy).run(
            parts)

    def offline():
        return play_workload(parts, n_devices=13, epsilon=0.05,
                             seed=0)

    stands = {
        "static": _best(lambda: live(StaticPlacement()), repeats),
        "adaptive": _best(live, repeats),
        "offline_play_workload": _best(offline, repeats),
    }
    result = live()
    return {
        "workload": f"tpce scale={scale}",
        "n_requests": n,
        "n_intervals": len(parts),
        "seconds": {k: round(v, 6) for k, v in stands.items()},
        "requests_per_sec": {
            k: round(n / v, 1) for k, v in stands.items()},
        "live_vs_offline_x": round(
            stands["adaptive"] / stands["offline_play_workload"], 3),
        "violation_rate": round(result.report.violation_rate, 6),
        "moves_applied": sum(a.deltas_applied for a in result.audit),
    }


def bench_mining(scale: float, n_intervals: int,
                 repeats: int) -> dict:
    """Per-interval cost of the boundary step, in isolation.

    Walks the intervals as the live loop does: feed an interval's
    traffic into a :class:`~repro.controller.boundary.BoundaryStep`,
    then time its ``boundary()`` -- mine + match + plan + re-map --
    best of ``repeats`` on identical copies of the fed step.
    """
    import copy

    from repro.controller.boundary import BoundaryStep
    from repro.core.qos import QoSFlashArray
    from repro.experiments.fig8 import make_parts

    parts = make_parts("tpce", scale, n_intervals, 0)
    step = BoundaryStep(QoSFlashArray(n_devices=13).allocation)
    per_interval = []
    for part in parts:
        step.feed(part)
        copies = [copy.deepcopy(step) for _ in range(repeats)]
        best = min(_timed(fed.boundary)[1] for fed in copies)
        n_txns, _itemsets, _plan = step.boundary()
        per_interval.append({
            "n_transactions": n_txns,
            "boundary_seconds": round(best, 6),
        })
    return {
        "per_interval": per_interval,
        "boundary_seconds_total": round(
            sum(p["boundary_seconds"] for p in per_interval), 6),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N per timing (default 5)")
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="fail unless the adaptive stand sustains "
                             "this many requests/sec")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no BENCH_controller.json "
                             "-- CI health check only")
    parser.add_argument("--json", type=Path, default=None,
                        metavar="PATH",
                        help="write the report here (default: "
                             "BENCH_controller.json in full mode, "
                             "nowhere with --smoke)")
    args = parser.parse_args(argv)

    scale, n_intervals = (0.2, 4) if args.smoke else (0.4, 8)
    repeats = 2 if args.smoke else args.repeats

    loop = bench_loop(scale, n_intervals, repeats)
    mining = bench_mining(scale, n_intervals, repeats)
    mining["share_of_loop"] = round(
        mining["boundary_seconds_total"]
        / loop["seconds"]["adaptive"], 4)
    report = {
        "host": {"cpus": os.cpu_count(),
                 "python": sys.version.split()[0]},
        "mode": "smoke" if args.smoke else "full",
        "loop": loop,
        "mining": mining,
    }
    print(json.dumps(report, indent=2))
    out = args.json if args.json or args.smoke else OUT
    if out:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwritten to {out}")
    if args.min_throughput is not None:
        rps = loop["requests_per_sec"]["adaptive"]
        if rps < args.min_throughput:
            print(f"FAIL: adaptive stand sustained {rps:.0f} "
                  f"requests/sec < floor {args.min_throughput:.0f}")
            return 1
        print(f"throughput gate: {rps:.0f} requests/sec >= "
              f"{args.min_throughput:.0f} floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
