#!/usr/bin/env python3
"""Benchmark the parallel experiment engine and the playback fast path.

Measures five things and writes ``BENCH_runner.json`` at the repo
root (schema below):

1. **engine**: the event-free constant-latency playback vs the DES on
   the Figure 8 Exchange workload -- the original ``>= 10x`` criterion.
2. **faulted**: faulted playback (crash/down/slow/read_error schedule)
   through the :class:`repro.flash.faulted.FaultedReplay` fast path vs
   the DES, with a byte-identity cross-check.
3. **admission**: the vectorized admission kernel
   (:mod:`repro.flash.admitpath`) vs a *PR-8-equivalent* scalar driver
   loop on the faulted-sweep cell and a delayed-pileup cell, plus the raw
   classification throughput of the kernel itself -- rows identical
   both ways.
4. **sweep**: the fault-injection experiment grid (15 cells) serial vs
   chunked-parallel through the persistent pool, rows identical.
5. **harness serial vs parallel**: every experiment's cells through
   ``ParallelRunner(jobs=1)`` and ``ParallelRunner(jobs=N)``
   (uncached both times, pool forced), asserting identical rows; also
   reports fast-path coverage from the engine tally.
6. **cache**: a warm rerun against a fresh on-disk cache.

Every run also appends a dated one-line summary to
``BENCH_trajectory.jsonl`` so the ``BENCH_*.json`` snapshots gain a
history (CI archives both).  The smoke scale writes neither file
unless asked: its report goes only to an explicit ``--json PATH`` and
its summary line only to an explicit ``--trajectory PATH``, so a
local smoke run never overwrites the committed snapshots.

Run after engine or runner changes::

    PYTHONPATH=src python tools/bench_runner.py [--jobs N]
        [--scale smoke|fast|full]
        [--min-parallel-speedup X] [--min-fastpath-coverage Y]
        [--min-admission-speedup Z] [--max-sweep-seconds S]
        [--json PATH] [--trajectory PATH]

``--scale fast`` (default) uses the CLI's ``--fast`` workload sizes so
the benchmark finishes in minutes; ``smoke`` shrinks further for CI,
where the ``--min-*``/``--max-*`` gates turn regressions into a
non-zero exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

OUT = ROOT / "BENCH_runner.json"
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"

#: workload sizes per --scale
SCALES = {
    "smoke": {"fig8_scale": 0.25, "fig8_intervals": 8,
              "fault_requests": 360, "sweep_requests": 240,
              "sweep_failures": 3, "repeats": 2,
              "classify_requests": 200_000},
    "fast": {"fig8_scale": 0.5, "fig8_intervals": 24,
             "fault_requests": 720, "sweep_requests": 480,
             "sweep_failures": 4, "repeats": 3,
             "classify_requests": 1_000_000},
    "full": {"fig8_scale": 0.5, "fig8_intervals": 24,
             "fault_requests": 2000, "sweep_requests": 720,
             "sweep_failures": 4, "repeats": 3,
             "classify_requests": 2_000_000},
}


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def bench_engine(cfg: dict) -> dict:
    """DES vs fast playback on fig8's Exchange trace."""
    from repro.experiments.common import play_original
    from repro.experiments.fig8 import make_parts

    parts = make_parts("exchange", cfg["fig8_scale"],
                       cfg["fig8_intervals"], 0)
    n = sum(len(p) for p in parts)
    timings = {}
    for engine in ("des", "fast"):
        best = min(_timed(play_original, parts, 13, engine=engine)[1]
                   for _ in range(cfg["repeats"]))
        timings[engine] = best
    # cross-check: both engines must agree float-exactly
    des = play_original(parts, 13, engine="des")
    fast = play_original(parts, 13, engine="fast")
    for i in des.intervals():
        if fast.stats(i).state() != des.stats(i).state():
            raise AssertionError("fast playback diverged from DES")
    return {
        "workload": f"fig8 exchange scale={cfg['fig8_scale']} "
                    f"n_intervals={cfg['fig8_intervals']}",
        "n_requests": n,
        "des_seconds": round(timings["des"], 6),
        "fast_seconds": round(timings["fast"], 6),
        "speedup": round(timings["des"] / timings["fast"], 2),
        "float_exact": True,
    }


# -- faulted playback ------------------------------------------------------

def _faulted_cell(cfg: dict, kind: str):
    """A faulted playback cell.

    ``"crash"`` mirrors the fault-injection experiment family (module
    crashes at t=0, the schedule the sweep actually plays);
    ``"dense"`` materializes a stochastic model with all four fault
    kinds -- an adversarial load for the replay's event handling.
    """
    from repro.experiments.faults import make_allocation
    from repro.faults import FaultModel, FaultSchedule

    alloc = make_allocation("design", 9)
    n = cfg["fault_requests"]
    if kind == "crash":
        schedule = FaultSchedule.crashes(range(2), n_modules=9)
    else:
        model = FaultModel(down_rate=0.3, down_mean_ms=2.0,
                           slow_rate=0.3, slow_mean_ms=2.0,
                           slow_factor=3.0, error_rate=0.3,
                           error_mean_ms=2.0, error_prob=0.4)
        schedule = model.materialize(9, horizon_ms=n * 0.25, seed=17)
    arrivals = [i * 0.25 for i in range(n)]
    buckets = [i % alloc.n_buckets for i in range(n)]
    return alloc, schedule, arrivals, buckets


def _play_faulted(alloc, schedule, arrivals, buckets, engine):
    from repro.flash.driver import OnlineTracePlayer

    player = OnlineTracePlayer(alloc, interval_ms=0.4,
                               faults=schedule, engine=engine)
    return player.play(arrivals, buckets)[1]


def _fault_fingerprint(played):
    return [(p.io.issued_at, p.io.started_at, p.io.completed_at,
             p.io.device, p.io.retries, p.io.faulted, p.io.failed,
             p.io.fail_reason, p.delayed) for p in played]


def bench_faulted(cfg: dict) -> dict:
    """Faulted playback: fast path vs DES.

    Reports the sweep-representative crash schedule and the dense
    adversarial schedule separately: the replay wins big on the former
    (quiet modules are served by the plain FCFS loop, with no fault
    query per row) and by less on the latter, where most dequeues fall
    inside a fault window and take the scalar fault mirror.
    """
    descriptions = {
        "crash": "2 modules crashed at t=0 (the sweep's schedule)",
        "dense": "materialized crash/down/slow/read_error model",
    }
    out = {}
    for kind, what in descriptions.items():
        args = _faulted_cell(cfg, kind)
        timings = {}
        for engine in ("des", "fast"):
            timings[engine] = min(
                _timed(_play_faulted, *args, engine)[1]
                for _ in range(cfg["repeats"]))
        fast = _fault_fingerprint(_play_faulted(*args, "fast"))
        des = _fault_fingerprint(_play_faulted(*args, "des"))
        if fast != des:
            raise AssertionError(
                f"faulted fast playback diverged from DES ({kind})")
        out[kind] = {
            "workload": f"online design alloc, {what}, "
                        f"n={cfg['fault_requests']}",
            "des_seconds": round(timings["des"], 6),
            "fast_seconds": round(timings["fast"], 6),
            "speedup_vs_des": round(
                timings["des"] / timings["fast"], 2),
            "rows_identical": True,
        }
    return out


# -- vectorized admission kernel -------------------------------------------

@contextlib.contextmanager
def _pr8_baseline():
    """Temporarily restore the PR-8 admission/driver-loop behavior.

    PR 8 ran the per-request scalar admission loop (heap pop, interval
    roll, ``offer``, dispatch) for every configuration, and the
    faulted replay heap-pushed every submission individually.
    Demoting every new session before its first feed (the scalar
    reference) and wrapping the replay's submission hook with one
    ``heapq.heappush`` per submission reproduces that baseline on
    today's code.
    """
    import heapq

    from repro.flash.driver import OnlineTracePlayer
    from repro.flash.faulted import FaultedReplay

    submit_read = FaultedReplay.submit_read
    open_session = OnlineTracePlayer.session

    def pushed_submit(self, row, module, issue_at, created,
                      candidates=None):
        submit_read(self, row, module, issue_at, created, candidates)
        heap = self.__dict__.setdefault("_pr8_heap", [])
        heapq.heappush(heap, (issue_at, created, len(heap), row))

    def demoted_session(self):
        session = open_session(self)
        session._demote("reference")
        return session

    FaultedReplay.submit_read = pushed_submit
    OnlineTracePlayer.session = demoted_session
    try:
        yield
    finally:
        FaultedReplay.submit_read = submit_read
        OnlineTracePlayer.session = open_session


def _driver_loop(alloc, schedule, arrivals, buckets):
    """Time the online driver loop proper on the fast engine.

    The *driver* bracket covers feed + admission/classification/
    dispatch -- the per-request loop the admission kernel vectorizes
    (under the PR-8 baseline it also carries the per-submission
    replay heap pushes that loop performed).  The faulted playback
    that serves the submitted queues afterwards is timed separately
    (it has its own breakout and is byte-identical code on both
    sides); the engine-independent series/report epilogue that
    ``drain()`` adds on top is left out entirely.  Returns
    ``(session, driver_seconds, total_seconds)``.
    """
    from repro.flash.driver import OnlineTracePlayer

    player = OnlineTracePlayer(alloc, interval_ms=0.4,
                               faults=schedule, engine="fast")
    session = player.session()
    t0 = time.perf_counter()
    session.feed(arrivals, buckets)
    if session._vec is not None:
        session._advance_vector(None)
    while session.heap:
        session.process_now(session.heap[0][0])
    t1 = time.perf_counter()
    if session.replay is not None:
        session.replay.run(session._log)
    t2 = time.perf_counter()
    session._drained = True
    return session, t1 - t0, t2 - t0


def _admission_cells(cfg: dict) -> dict:
    """The admission-breakout workloads.

    ``sweep_crash`` is the faulted-sweep driver-loop cell (the same
    allocation/schedule/trace as the ``faulted`` breakout's crash
    cell); ``pileup_delay`` exercises the delayed-spill carry chains
    with every interval oversubscribed.
    """
    alloc, schedule, arrivals, buckets = _faulted_cell(cfg, "crash")
    n = cfg["fault_requests"]
    burst_arr = [k * 0.4 + (j % 24) * 0.004 for k in range(n // 24)
                 for j in range(24)]
    burst_buckets = [i % alloc.n_buckets
                     for i in range(len(burst_arr))]
    return {
        "sweep_crash": (alloc, schedule, arrivals, buckets,
                        "the faulted sweep's crash cell "
                        f"(2 dead modules, n={n})"),
        "pileup_delay": (alloc, None, burst_arr, burst_buckets,
                         "24 requests per interval, every interval "
                         f"over budget (n={len(burst_arr)})"),
    }


def _classify_throughput(cfg: dict) -> dict:
    """Raw classification rate of the segmented admission kernel.

    Feeds an uncongested trace (every interval within budget, so the
    whole chunk classifies through the bulk-emission path) straight
    into :class:`repro.flash.admitpath.VectorAdmissionWindow` --
    no dispatch, no playback -- and reports requests per second.
    This is the 1M+ req/s stretch of the admission path itself.
    """
    import numpy as np

    from repro.flash.admitpath import VectorAdmissionWindow

    n = cfg["classify_requests"]
    times = np.arange(n, dtype=np.float64) * 0.1
    indices = np.arange(n, dtype=np.int64)

    def classify():
        window = VectorAdmissionWindow(0.4, 5, "delay")
        window.feed(times, indices)
        plan = window.take(None)
        assert plan is not None and len(plan) == n
        return plan

    best = min(_timed(classify)[1] for _ in range(3))
    return {
        "workload": f"uncongested classification, n={n}",
        "n_requests": n,
        "seconds": round(best, 6),
        "requests_per_second": int(n / best),
    }


def bench_admission(cfg: dict) -> dict:
    """Admission kernel vs the PR-8 scalar driver loop.

    The gated number is ``sweep_crash.speedup_vs_pr8`` -- the
    faulted-sweep driver loop with the segmented admission kernel
    against the same loop run scalar -- with played-request rows
    byte-identical both ways.
    """
    out = {}
    for name, (alloc, schedule, arrivals, buckets, what) \
            in _admission_cells(cfg).items():
        vec, _, _ = _driver_loop(alloc, schedule, arrivals, buckets)
        if vec.admission_kernel != "vector":
            raise AssertionError(
                f"admission kernel did not engage on {name!r} "
                f"({vec.admission_fallback_reason})")
        # The cells are a few ms each, so extra repeats are cheap and
        # keep the min-of-N gate clear of first-run jitter.
        reps = max(cfg["repeats"], 6)
        vec_runs = [_driver_loop(alloc, schedule, arrivals,
                                 buckets)[1:]
                    for _ in range(reps)]
        vec_s = min(r[0] for r in vec_runs)
        vec_total = min(r[1] for r in vec_runs)
        with _pr8_baseline():
            pr8, _, _ = _driver_loop(alloc, schedule, arrivals,
                                     buckets)
            if pr8.admission_kernel != "scalar":
                raise AssertionError(
                    f"the PR-8 baseline kept the kernel on {name!r}")
            pr8_runs = [_driver_loop(alloc, schedule, arrivals,
                                     buckets)[1:]
                        for _ in range(reps)]
            pr8_s = min(r[0] for r in pr8_runs)
            pr8_total = min(r[1] for r in pr8_runs)
        if _fault_fingerprint(vec.played) != \
                _fault_fingerprint(pr8.played):
            raise AssertionError(
                f"vectorized admission diverged from the scalar "
                f"loop ({name})")
        out[name] = {
            "workload": what,
            "pr8_scalar_seconds": round(pr8_s, 6),
            "vector_seconds": round(vec_s, 6),
            "speedup_vs_pr8": round(pr8_s / vec_s, 2),
            "end_to_end_speedup": round(pr8_total / vec_total, 2),
            "rows_identical": True,
        }
    out["classify"] = _classify_throughput(cfg)
    return out


# -- faulted sweep through the pool ----------------------------------------

def bench_sweep(cfg: dict, jobs: int) -> dict:
    """The fault-injection grid, serial vs chunked-parallel."""
    from repro.experiments import faults as faults_exp
    from repro.runner import ParallelRunner

    def sweep(runner):
        return faults_exp.run(n_requests=cfg["sweep_requests"],
                              max_failures=cfg["sweep_failures"],
                              seed=0, runner=runner).rows

    serial_runner = ParallelRunner(jobs=1, cache=None)
    serial_rows, serial_s = _timed(sweep, serial_runner)
    pool_runner = ParallelRunner(jobs=jobs, cache=None,
                                 auto_degrade=False)
    pool_rows, pool_s = _timed(sweep, pool_runner)
    if serial_rows != pool_rows:
        raise AssertionError("parallel sweep rows diverged from serial")
    n_cells = len(serial_rows)
    return {
        "workload": f"faults grid ({n_cells} cells, "
                    f"n_requests={cfg['sweep_requests']}) -- batched "
                    f"metrics kernel + faulted fast path",
        "jobs": jobs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(pool_s, 3),
        "speedup": round(serial_s / pool_s, 2),
        "rows_identical": True,
    }


# -- full harness ----------------------------------------------------------

def _harness(runner, fast: bool):
    """Run every experiment through ``runner``; returns their rows."""
    from repro.experiments import ablations
    from repro.experiments.cli import RUNNERS

    rows = {name: fn(fast, runner=runner).rows
            for name, fn in RUNNERS.items()}
    rows["ablations"] = [r.rows for r in
                         ablations.run(runner=runner)]
    return rows


def _stable(rows: dict) -> dict:
    """Strip wall-time/memory measurement columns before comparing."""
    out = dict(rows)
    out["table4"] = [[r[0], r[1], r[2], r[5]] for r in rows["table4"]]
    out["ablations"] = [
        [[cell for cell in row if not isinstance(cell, float)]
         for row in table]
        for table in rows["ablations"]]
    return out


def bench_harness(jobs: int, fast: bool) -> dict:
    from repro import obs
    from repro.runner import ParallelRunner, ResultCache

    serial_runner = ParallelRunner(jobs=1, cache=None)
    serial_rows, serial_s = _timed(_harness, serial_runner, fast)

    parallel_runner = ParallelRunner(jobs=jobs, cache=None,
                                     auto_degrade=False)
    parallel_rows, parallel_s = _timed(_harness, parallel_runner, fast)

    if _stable(serial_rows) != _stable(parallel_rows):
        raise AssertionError("parallel rows diverged from serial")

    import shutil
    import tempfile

    # Fast-path coverage census: an untimed pass under obs, where
    # every playback (in this process or a pool worker) counts its
    # engine selection into the merged payload's kernel section.  It
    # cannot double as the cache fill: the runner bypasses the cache
    # while observing.
    with obs.observed() as census:
        _harness(ParallelRunner(jobs=jobs, cache=None,
                                auto_degrade=False), fast)
    counters = census.to_payload()["kernel"]["metrics"]["counters"]
    n_fast = counters.get("engine.fast", 0)
    n_des = counters.get("engine.des", 0)
    coverage = n_fast / (n_fast + n_des) if n_fast + n_des else 0.0

    cache_dir = tempfile.mkdtemp(prefix="bench-cache-")
    try:
        cache = ResultCache(root=Path(cache_dir))
        _harness(ParallelRunner(jobs=jobs, cache=cache,
                                auto_degrade=False), fast)
        warm = ResultCache(root=Path(cache_dir))
        warm_runner = ParallelRunner(jobs=jobs, cache=warm)
        _, cached_s = _timed(_harness, warm_runner, fast)
        cache_stats = {"hits": warm.hits, "misses": warm.misses}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    per_cell = {}
    for experiment, name, seconds, _ in serial_runner.timings:
        per_cell.setdefault(experiment, 0.0)
        per_cell[experiment] += seconds
    return {
        "scale": "fast" if fast else "paper",
        "jobs": jobs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "rows_identical": True,
        "cached_rerun_seconds": round(cached_s, 3),
        "cache": cache_stats,
        "fastpath_coverage": {
            "fast_playbacks": n_fast,
            "des_playbacks": n_des,
            "fallback_reasons": {
                k.removeprefix("engine.fallback."): v
                for k, v in counters.items()
                if k.startswith("engine.fallback.")},
            "coverage": round(coverage, 4),
        },
        "serial_seconds_by_experiment": {
            k: round(v, 3) for k, v in sorted(per_cell.items())},
    }


def _gate(report: dict, args) -> int:
    """Apply the CI regression gates; returns the exit code."""
    failures = []
    if args.min_parallel_speedup is not None:
        speedup = report["harness"]["speedup"]
        if speedup < args.min_parallel_speedup:
            failures.append(
                f"harness parallel speedup {speedup}x is below the "
                f"{args.min_parallel_speedup}x gate")
    if args.min_fastpath_coverage is not None:
        coverage = report["harness"]["fastpath_coverage"]["coverage"]
        if coverage < args.min_fastpath_coverage:
            failures.append(
                f"fast-path coverage {coverage} is below the "
                f"{args.min_fastpath_coverage} gate")
    if args.min_admission_speedup is not None:
        speedup = report["admission"]["sweep_crash"]["speedup_vs_pr8"]
        if speedup < args.min_admission_speedup:
            failures.append(
                f"admission-kernel driver-loop speedup {speedup}x "
                f"is below the {args.min_admission_speedup}x gate")
    if args.max_sweep_seconds is not None:
        wall = report["sweep"]["parallel_seconds"]
        if wall > args.max_sweep_seconds:
            failures.append(
                f"faulted-sweep wall time {wall}s exceeds the "
                f"{args.max_sweep_seconds}s gate")
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
        "engine_speedup": report["engine"]["speedup"],
        "admission_speedup_vs_pr8":
            report["admission"]["sweep_crash"]["speedup_vs_pr8"],
        "admission_classify_rps":
            report["admission"]["classify"]["requests_per_second"],
        "sweep_parallel_seconds": report["sweep"]["parallel_seconds"],
        "harness_speedup": report["harness"]["speedup"],
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="fast")
    parser.add_argument("--full", action="store_true",
                        help="alias for --scale full (paper-scale "
                             "workloads, slow)")
    parser.add_argument("--min-parallel-speedup", type=float,
                        default=None, metavar="X",
                        help="exit non-zero if the harness parallel "
                             "speedup falls below X")
    parser.add_argument("--min-fastpath-coverage", type=float,
                        default=None, metavar="Y",
                        help="exit non-zero if fast-path playback "
                             "coverage falls below Y (fraction)")
    parser.add_argument("--min-admission-speedup", type=float,
                        default=None, metavar="Z",
                        help="exit non-zero if the admission-kernel "
                             "driver-loop speedup vs the PR-8 scalar "
                             "baseline falls below Z")
    parser.add_argument("--max-sweep-seconds", type=float,
                        default=None, metavar="S",
                        help="exit non-zero if the parallel faulted "
                             "sweep takes longer than S seconds")
    parser.add_argument("--json", type=Path, default=None,
                        metavar="PATH",
                        help="where to write the report (default: "
                             "BENCH_runner.json, nowhere at the "
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
        "engine": bench_engine(cfg),
        "faulted": bench_faulted(cfg),
        "admission": bench_admission(cfg),
        "sweep": bench_sweep(cfg, args.jobs),
        "harness": bench_harness(args.jobs, fast=scale != "full"),
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
