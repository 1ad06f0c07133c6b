#!/usr/bin/env python3
"""Benchmark the retrieval kernels and write ``BENCH_retrieval.json``.

Measures four things on the (9, 3, 1) design the paper deploys:

1. **sampler**: the Figure 4 ``P_k`` Monte-Carlo sampler's bitset
   kernel vs its per-trial Kuhn reference
   (``OptimalRetrievalSampler.reference_probability``) -- a ``>= 5x``
   floor at ``trials=2000``.
2. **online**: sliding-window playback through
   :class:`repro.retrieval.online.SlidingWindowScheduler` (warm-started
   augmenting-path repair) vs re-solving every window from scratch
   with ``maxflow_retrieval``, plus the matcher's repair statistics.
3. **memoization**: the sampler cache's hit rate over a fig10 +
   ablations sweep -- the workloads that rebuild the same ``P_k``
   tables many times per run.
4. **harness**: serial wall time of the two slowest experiments
   (``ablations`` + ``fig10``) vs their ``BENCH_runner.json``
   baselines -- the ISSUE's ``>= 2x`` end-to-end criterion.

Run after touching the kernels or any retrieval call path::

    PYTHONPATH=src python tools/bench_retrieval.py [--repeats N]

``--smoke`` shrinks every workload and skips writing the JSON -- CI
uses it to prove the benchmark path stays healthy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

OUT = ROOT / "BENCH_retrieval.json"
BASELINE = ROOT / "BENCH_runner.json"

#: Floor on the sampler speedup at trials=2000 on (9, 3, 1)
SAMPLER_FLOOR = 5.0
#: Floor on the ablations + fig10 combined serial speedup
HARNESS_FLOOR = 2.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def bench_sampler(trials: int, max_k: int, repeats: int) -> dict:
    """Figure 4 ``P_k`` table, bitset kernel vs per-trial reference."""
    from repro.allocation.design_theoretic import \
        DesignTheoreticAllocation
    from repro.core.sampling import OptimalRetrievalSampler
    from repro.graph import kernels

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)

    def table():
        kernels.clear_caches()  # time the cold path, not a cache hit
        sampler = OptimalRetrievalSampler(alloc, trials=trials, seed=0)
        return sampler.table(max_k)

    def reference():
        sampler = OptimalRetrievalSampler(alloc, trials=trials, seed=0)
        return {k: sampler.reference_probability(k)
                for k in range(1, max_k + 1)}

    fast_table, _ = _timed(table)
    fast_s = min(_timed(table)[1] for _ in range(repeats))
    legacy_table, _ = _timed(reference)
    legacy_s = min(_timed(reference)[1] for _ in range(repeats))
    if fast_table != legacy_table:
        raise AssertionError(
            "kernel sampler diverged from the per-trial reference")
    return {
        "workload": f"fig4 P_k table, (9,3,1), trials={trials}, "
                    f"k=1..{max_k}",
        "legacy_seconds": round(legacy_s, 6),
        "kernel_seconds": round(fast_s, 6),
        "speedup": round(legacy_s / fast_s, 2),
        "trials_per_second": round(trials * max_k / fast_s),
        "tables_identical": True,
    }


def bench_online(n_events: int, window: int, accesses: int,
                 repeats: int) -> dict:
    """Sliding-window feasibility: warm-started repair vs re-solve."""
    from repro.allocation.design_theoretic import \
        DesignTheoreticAllocation
    from repro.retrieval.maxflow import maxflow_retrieval
    from repro.retrieval.online import SlidingWindowScheduler

    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    rng = np.random.default_rng(0)
    buckets = rng.integers(0, alloc.n_buckets, size=n_events)
    candidates = [alloc.devices_for(int(b)) for b in buckets]

    def warm():
        sched = SlidingWindowScheduler(alloc.n_devices, accesses)
        live = []
        feasible = 0
        for cand in candidates:
            live.append(sched.admit(cand))
            if len(live) > window:
                sched.retire(live.pop(0))
            feasible += sched.feasible
        return feasible, sched.stats()

    def cold():
        live = []
        feasible = 0
        for cand in candidates:
            live.append(cand)
            if len(live) > window:
                live.pop(0)
            sched = maxflow_retrieval(live, alloc.n_devices)
            feasible += sched.accesses <= accesses
        return feasible

    (warm_feasible, stats), _ = _timed(warm)
    warm_s = min(_timed(warm)[1] for _ in range(repeats))
    cold_feasible, _ = _timed(cold)
    cold_s = min(_timed(cold)[1] for _ in range(repeats))
    if warm_feasible != cold_feasible:
        raise AssertionError(
            "warm-started window feasibility diverged from re-solve")
    return {
        "workload": f"sliding window={window} over {n_events} "
                    f"requests, (9,3,1), M={accesses}",
        "resolve_seconds": round(cold_s, 6),
        "warm_start_seconds": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2),
        "feasible_windows": warm_feasible,
        "matcher_stats": stats,
    }


def bench_memoization(fast: bool) -> dict:
    """Sampler-cache hit rate across the retrieval-heavy experiments."""
    from repro.experiments import ablations
    from repro.experiments.cli import RUNNERS
    from repro.graph import kernels
    from repro.runner import ParallelRunner

    kernels.clear_caches()
    runner = ParallelRunner(jobs=1, cache=None)
    RUNNERS["fig10"](fast, runner=runner)
    ablations.run(runner=runner)
    stats = kernels.cache_stats()
    for entry in stats.values():
        lookups = entry["hits"] + entry["misses"]
        entry["hit_rate"] = (round(entry["hits"] / lookups, 4)
                             if lookups else None)
    return stats


def bench_harness(fast: bool) -> dict:
    """Serial ablations + fig10 wall time vs the recorded baseline."""
    from repro.experiments import ablations
    from repro.experiments.cli import RUNNERS
    from repro.runner import ParallelRunner

    runner = ParallelRunner(jobs=1, cache=None)
    _, fig10_s = _timed(RUNNERS["fig10"], fast, runner=runner)
    _, ablations_s = _timed(ablations.run, runner=runner)

    recorded = None
    if BASELINE.is_file():
        per = json.loads(BASELINE.read_text())["harness"] \
            .get("serial_seconds_by_experiment", {})
        if "ablations" in per and "fig10" in per:
            recorded = round(per["ablations"] + per["fig10"], 3)
    combined = fig10_s + ablations_s
    return {
        "workload": "ablations + fig10, serial, fast scale",
        "fig10_seconds": round(fig10_s, 3),
        "ablations_seconds": round(ablations_s, 3),
        "combined_seconds": round(combined, 3),
        "baseline_combined_seconds": recorded,
        "speedup_vs_baseline": (round(recorded / combined, 2)
                                if recorded else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N per timing (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, no acceptance gates -- "
                             "CI health check only")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the report here (smoke mode "
                             "included) instead of only the default "
                             "BENCH_retrieval.json")
    args = parser.parse_args(argv)

    if args.smoke:
        trials, max_k, repeats = 200, 6, 1
        n_events, window, accesses = 400, 12, 2
    else:
        trials, max_k, repeats = 2000, 20, args.repeats
        n_events, window, accesses = 4000, 60, 8

    report = {
        "host": {"cpus": os.cpu_count(),
                 "python": sys.version.split()[0]},
        "sampler": bench_sampler(trials, max_k, repeats),
        "online": bench_online(n_events, window, accesses, repeats),
        "memoization": bench_memoization(fast=True),
        "harness": bench_harness(fast=True),
    }
    print(json.dumps(report, indent=2))

    out = args.json
    if args.smoke and out is None:
        print("\nsmoke mode: BENCH_retrieval.json not written")
        return 0
    out = out or OUT
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwritten to {out}")
    if args.smoke:
        return 0

    failures = []
    if report["sampler"]["speedup"] < SAMPLER_FLOOR:
        failures.append(
            f"sampler speedup {report['sampler']['speedup']}x "
            f"< {SAMPLER_FLOOR}x floor")
    harness = report["harness"]
    if harness["speedup_vs_baseline"] is not None \
            and harness["speedup_vs_baseline"] < HARNESS_FLOOR:
        failures.append(
            f"ablations+fig10 speedup "
            f"{harness['speedup_vs_baseline']}x < {HARNESS_FLOOR}x "
            f"vs BENCH_runner.json")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
