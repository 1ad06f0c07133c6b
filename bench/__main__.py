"""Run the benchmark: ``python -m bench``.

    python -m bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                    [--repeats R] [--scale full|smoke] [--out FILE]
    python -m bench compare BASE.jsonl CHANGE.jsonl

Each repeat of a workload is a fresh ``python -m bench.repeat``
process, run one after another.  End-to-end metrics are medians over
the untraced repeats: at least ``--repeats``, and more until
``--seconds`` have passed; ``setup_s`` also takes the samples of
``SETUP_REPEATS`` set-up-only processes.  ``--trace 1`` adds one
traced repeat for the per-layer metrics.  The outputs are checked
(see ``_check``), a table of every metric with its unit is printed,
one record with provenance and per-repeat values is appended to
``--out``, and the last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics untraced, the per-layer metrics traced.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from bench import OUT_DIR, ROOT

SPEC_PATH = ROOT / "BENCHMARK.json"
FINGERPRINTS_PATH = ROOT / "bench" / "fingerprints.json"
#: per-layer counts only some workloads produce; 0 elsewhere
CENSUS_KEYS = ("cluster.routed_reads", "cluster.mirrored_blocks",
               "controller.deltas_applied", "controller.delta_apply_frac",
               "mining.match_rate", "faults.events")
#: summary fields that must be identical in every repeat
DETERMINISTIC = ("sim_p99_ms", "violation_rate", "pct_delayed",
                 "fail_frac", "n_faulted")
#: one process per repeat, same hash seed, no BLAS threads
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: set-up-only processes per workload and scale, on top of one set-up
#: sample per untraced repeat: import time alone jitters by up to 50%
SETUP_REPEATS = {"full": 10, "smoke": 1}
#: a single-workload run must end within this many seconds
RUN_BUDGET_S = 170.0


class RepeatFailed(Exception):
    pass


def _repeat(mode: str, name: str, seed: int, scale: str,
            deadline: float) -> Dict:
    env = dict(os.environ, **CHILD_ENV)
    # ``setup_s`` times imports from cached bytecode, as a user's
    # interpreter does; the first repeat in a fresh checkout writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.repeat", mode, name, str(seed),
             scale],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RepeatFailed(f"{name} {mode} repeat timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RepeatFailed(
            f"{name} {mode} repeat exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check(name: str, seed: int, scale: str,
           repeats: List[Dict]) -> List[str]:
    """Correctness gate over every repeat of one workload."""
    errors = []
    if len({r["fingerprint"] for r in repeats}) != 1:
        errors.append("per-request fingerprints differ across repeats")
    for field in DETERMINISTIC:
        if len({r["summary"][field] for r in repeats}) != 1:
            errors.append(f"{field} differs across repeats")
    for r in repeats:
        if r["n_reported"] != r["n_requests"]:
            errors.append(f"{r['n_reported']} requests reported, "
                          f"{r['n_requests']} generated")
        if r.get("prefix_equal") is False:
            errors.append("fast path differs from the DES on the prefix")
    if seed == 0:
        expected = json.loads(FINGERPRINTS_PATH.read_text())
        want = expected.get(scale, {}).get(name)
        got = repeats[0]["fingerprint"]
        if want != got:
            errors.append(f"seed-0 fingerprint {got} != recorded {want}")
    return errors


def _p99(values: List[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _end_to_end(timed: List[Dict],
                setups: List[float]) -> Dict[str, List[float]]:
    """Per-repeat raw values of each end-to-end metric."""
    return {
        "setup_s": [r["setup_s"] for r in timed] + setups,
        "rps": [r["n_requests"] / r["timed_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }


def _per_layer(timed: List[Dict], traced: Dict) -> Dict[str, float]:
    layers = dict.fromkeys(CENSUS_KEYS, 0)
    layers.update(traced["layers"])
    layers.update(traced["census"])
    summary = traced["summary"]
    layers["faults.faulted"] = summary["n_faulted"]
    for field in ("sim_p99_ms", "violation_rate", "pct_delayed",
                  "fail_frac"):
        layers[f"qos.{field}"] = summary[field]
    chunks = [r["chunk_s"] for r in timed if r["chunk_s"]]
    layers["flash.chunk_p50_ms"] = statistics.median(
        1e3 * statistics.median(c) for c in chunks) if chunks else 0.0
    layers["flash.chunk_p99_ms"] = statistics.median(
        1e3 * _p99(c) for c in chunks) if chunks else 0.0
    layers["trace.overhead_frac"] = traced["timed_s"] / statistics.median(
        r["timed_s"] for r in timed) - 1.0
    return layers


def run_workload(name: str, args, spec: Dict, deadline: float) -> Dict:
    """All repeats of one workload, checked; one result record."""
    timed: List[Dict] = []
    traced: Optional[Dict] = None
    setups: List[float] = []
    errors: List[str] = []
    failed = 0
    start = time.monotonic()
    try:
        while len(timed) < args.repeats or (
                args.seconds is not None
                and time.monotonic() - start < args.seconds):
            mode = "time" if timed else "check"
            timed.append(_repeat(mode, name, args.seed, args.scale,
                                 deadline))
        if args.trace:
            traced = _repeat("trace", name, args.seed, args.scale,
                             deadline)
        setups = [_repeat("setup", name, args.seed, args.scale,
                          deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS[args.scale])]
    except RepeatFailed as exc:
        errors.append(str(exc))
        failed = 1
    done = timed + ([traced] if traced else [])
    if done and not errors:
        errors = _check(name, args.seed, args.scale, done)
    record = {"workload": name, "correct": not errors, "errors": errors,
              "attempted": sum(r["n_requests"] for r in done) + failed,
              "failed": failed,
              "fingerprint": done[0]["fingerprint"] if done else None}
    if errors:
        return record
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    raw = _end_to_end(timed, setups)
    if set(raw) != set(units):
        raise KeyError(f"end-to-end metrics {sorted(raw)} do not match "
                       f"BENCHMARK.json {sorted(units)}")
    record["end_to_end"] = {
        m: {"value": statistics.median(raw[m]), "unit": unit,
            "raw": raw[m]}
        for m, unit in units.items()}
    if traced is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = _per_layer(timed, traced)
        if set(layers) != set(units):
            raise KeyError(
                f"per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(layers) ^ set(units))}")
        record["per_layer"] = {m: {"value": layers[m], "unit": unit}
                               for m, unit in units.items()}
    return record


def _git_sha() -> Optional[str]:
    """HEAD of the checkout (None outside git or without git)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args) -> Dict:
    return {"sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "seed": args.seed,
            "scale": args.scale, "repeats": args.repeats,
            "seconds": args.seconds, "trace": args.trace,
            "env": CHILD_ENV,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _print_table(record: Dict) -> None:
    name = record["workload"]
    if not record["correct"]:
        for err in record["errors"]:
            print(f"{name}: FAILED: {err}")
        return
    print(f"{name}: fingerprint {record['fingerprint'][:16]}")
    for section in ("end_to_end", "per_layer"):
        for metric, m in record.get(section, {}).items():
            print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    spec = json.loads(SPEC_PATH.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep repeating until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add a traced repeat for per-layer metrics")
    parser.add_argument("--repeats", type=int, default=3,
                        help="minimum untraced repeats per workload")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", type=Path,
                        default=OUT_DIR / "results.jsonl",
                        help="JSON-lines file to append the record to")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else workloads
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    records = {name: run_workload(name, args, spec, deadline)
               for name in names}
    for record in records.values():
        _print_table(record)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a") as fh:
        fh.write(json.dumps({"provenance": _provenance(args),
                             "workloads": records}) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, record in records.items():
        for metric, m in record.get(section, {}).items():
            key = metric if args.workload else f"{name}/{metric}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    correct = all(r["correct"] for r in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
