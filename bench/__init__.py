"""Closed-loop benchmark of the QoS flash-array stack.

``python -m bench`` runs the workloads in :mod:`bench.workloads`, one
fresh process per repeat, checks their outputs and prints every metric
named in ``BENCHMARK.json`` with its unit.  See ``bench/README.md``.
"""

from pathlib import Path

#: the checkout root: the benchmark reads ``src/`` and ``BENCHMARK.json``
#: there and writes only under ``bench/out/``
ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "bench" / "out"
