"""How a healthy cluster play writes its played rows.

The vector session's plan walker writes the rows of the singleton
reads it places by column, a slice at a time; only rejected entries,
unavailable reads, writes and batches of several requests still go
through the per-row :meth:`repro.flash.played.PlayedLog.add`.  On the
benchmark's ``cluster_hot`` geometry (four 9-device arrays, hash
sharding, about 22 requests per ms, a 1 ms interval) that is a small
share of the rows.
"""

import numpy as np

from repro.cluster import ClusterConfig, ShardedCluster
from repro.flash.played import PlayedLog
from repro.traces.records import Trace


def _parts(n_parts=4, per_part=5_000, seed=0):
    """Four parts of ``cluster_hot``'s traffic: uniform gaps of
    0.035-0.055 ms over a 4096-block pool, with 4% of the requests in
    back-to-back hot pairs."""
    rng = np.random.default_rng(seed)
    pool = 4096
    hot_pairs = [(pool - 8 + 2 * i, pool - 7 + 2 * i) for i in range(4)]
    parts, t0 = [], 0.0
    for _ in range(n_parts):
        arrivals = t0 + np.cumsum(rng.uniform(0.035, 0.055, per_part))
        blocks = rng.integers(0, pool - 8, size=per_part)
        n_hot = int(0.04 * per_part) & ~1
        starts = rng.choice(per_part - 1, size=n_hot // 2, replace=False)
        for i, (a, b) in enumerate(hot_pairs):
            blocks[starts[i::4]] = a
            blocks[starts[i::4] + 1] = b
        parts.append(Trace.from_arrays(arrivals, blocks))
        t0 = float(arrivals[-1]) + 5.0
    return parts


def test_per_row_adds_are_a_small_share(monkeypatch):
    adds = []
    add = PlayedLog.add

    def counting_add(log, *args, **kwargs):
        adds.append(1)
        return add(log, *args, **kwargs)

    monkeypatch.setattr(PlayedLog, "add", counting_add)
    parts = _parts()
    report = ShardedCluster(ClusterConfig(
        n_arrays=4, n_devices=9, interval_ms=1.0, cross_replication=2,
        hot_support=50, min_support=20)).play(parts)
    n = sum(len(part) for part in parts)
    assert report.n_requests == n == 20_000
    assert len(adds) <= 0.15 * n, len(adds)
