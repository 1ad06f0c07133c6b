"""``numpy.ma`` stays unimported through a cluster play and a
controller run.

``np.unique`` without index or count outputs calls
``np.ma.is_masked``, so its first call imports ``numpy.ma`` (about
10 ms) inside whatever play makes it.  Checked in a fresh interpreter,
where nothing else has imported it yet.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[2] / "src"

SCRIPT = """
import sys
import numpy as np
from repro.cluster import ClusterConfig, ShardedCluster
from repro.controller import ControllerConfig, ReplicationController
from repro.experiments.fig8 import make_parts
from repro.traces.records import Trace

rng = np.random.default_rng(0)
parts, t0 = [], 0.0
for _ in range(3):
    arrivals = t0 + np.cumsum(rng.uniform(0.03, 0.05, 400))
    blocks = rng.integers(0, 64, 400)
    parts.append(Trace.from_arrays(arrivals, blocks))
    t0 = float(arrivals[-1]) + 1.0
ShardedCluster(ClusterConfig(n_arrays=2, n_devices=9, interval_ms=1.0,
                             hot_support=4, min_support=2)).play(parts)
ReplicationController(ControllerConfig(n_devices=9)).run(
    make_parts("exchange", 0.25, 3, seed=11))
print("numpy.ma" in sys.modules)
"""


def test_cluster_and_controller_leave_numpy_ma_unimported():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=300, env={"PYTHONPATH": str(SRC), "PATH": ""})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[-1] == "False"
