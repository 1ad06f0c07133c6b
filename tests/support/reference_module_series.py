"""Reference per-row module series: the oracle for
:func:`repro.obs.series.module_interval_series`.

The straightforward loop over played rows -- one dict update per
overlapped ``(device, interval)``, per-device sorted issue/start
times for the boundary depths -- that the columnar implementation must
reproduce exactly: same keys, same insertion order, same float sums.
"""

from typing import Dict, Tuple

import numpy as np


def reference_module_series(played, interval_ms: float,
                            ) -> Tuple[Dict, Dict]:
    """``(busy_ms, depth)`` dicts over ``played`` (any iterable of
    :class:`~repro.flash.played.PlayedRequest`-shaped rows)."""
    busy_ms: Dict[Tuple[int, int], float] = {}
    depth_out: Dict[Tuple[int, int], int] = {}
    issued: Dict[int, list] = {}
    started: Dict[int, list] = {}
    last_boundary = 0
    seen = False
    for pr in played:
        io = pr.io
        if pr.rejected or io.failed or io.device < 0 \
                or io.completed_at <= 0:
            continue
        seen = True
        d = io.device
        s, c = io.started_at, io.completed_at
        first = int(s / interval_ms + 1e-9)
        for k in range(first, int(np.ceil(c / interval_ms - 1e-9))):
            lo = k * interval_ms
            hi = lo + interval_ms
            overlap = min(c, hi) - max(s, lo)
            if overlap > 0:
                busy_ms[(d, k)] = busy_ms.get((d, k), 0.0) + overlap
        last_boundary = max(last_boundary, int(c / interval_ms - 1e-9))
        issued.setdefault(d, []).append(io.issued_at)
        started.setdefault(d, []).append(s)
    if not seen:
        return busy_ms, depth_out
    boundaries = np.arange(last_boundary + 1, dtype=np.float64) \
        * interval_ms
    for d in sorted(issued):
        depth = (np.searchsorted(np.sort(issued[d]), boundaries,
                                 side="right")
                 - np.searchsorted(np.sort(started[d]), boundaries,
                                   side="right"))
        for k, n in enumerate(depth):
            if n > 0:
                depth_out[(d, k)] = int(n)
    return busy_ms, depth_out


def reference_merge(acc: Tuple[Dict, Dict],
                    other: Tuple[Dict, Dict]) -> None:
    """The reference ``ModuleSeries.merge``: per-key dict updates."""
    for mine, theirs in zip(acc, other):
        for key, value in theirs.items():
            mine[key] = mine.get(key, 0) + value
