"""``python -m bench compare BASE CHANGE``: one verdict per metric.

BASE and CHANGE are result files that ``python -m bench --out FILE``
appends one JSON line to per invocation.  Each side pools the
per-repeat values of every record in its file, so ten alternating
parent/change invocations compare as ten-run samples.  For every
(workload, end-to-end metric) the table gives each side's first
quartile, median and third quartile, then a verdict under the metric's
``bound`` and ``better`` direction from ``BENCHMARK.json``:

``ok``
    the change's median is no worse than the base's by more than the
    bound, or every change value is better than every base value;
``regressed``
    the change's median is worse by more than the bound;
``unresolved``
    the base's own spread (interquartile range over median) is wider
    than the bound, so neither can be told apart from noise.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from bench import ROOT

Samples = Dict[Tuple[str, str], List[float]]


def load(path: Path) -> Samples:
    samples: Samples = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        for name, record in json.loads(line)["workloads"].items():
            for metric, m in record.get("end_to_end", {}).items():
                samples.setdefault((name, metric), []).extend(m["raw"])
    return samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> str:
    lower = better == "lower"
    if (max(change) < min(base)) if lower else (min(change) > max(base)):
        return "ok"
    b1, b_med, b3 = quartiles(base)
    c_med = statistics.median(change)
    if b_med == 0:
        return "ok" if (c_med <= 0 if lower else c_med >= 0) \
            else "regressed"
    if (b3 - b1) / abs(b_med) > bound:
        return "unresolved"
    worse = (c_med - b_med) / abs(b_med)
    if not lower:
        worse = -worse
    return "regressed" if worse > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare BASE.jsonl CHANGE.jsonl",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':20s} {'metric':12s} {'base q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s}  verdict")
    regressed = False
    for key in sorted(set(base) & set(change)):
        name, metric = key
        m = metrics[metric]
        result = verdict(base[key], change[key], m["better"], m["bound"])
        regressed |= result == "regressed"
        cols = ["/".join(f"{v:.4g}" for v in quartiles(side[key]))
                for side in (base, change)]
        print(f"{name:20s} {metric:12s} {cols[0]:>32s} {cols[1]:>32s}  "
              f"{result} (bound {m['bound']:g}, {m['better']} is "
              f"better)")
    return 1 if regressed else 0
