"""Per-module utilisation and queue-depth time series.

Sampled at QoS-interval boundaries and computed *post hoc* from the
played request timestamps, so the DES and the vectorized fast path
produce identical series by construction (same timestamps in, same
pure function over them).

Replicated write masters (``device == -1``) are excluded from the
per-device series on both engines -- the fast engine only tracks the
logical write, not its per-replica service windows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["ModuleSeries", "module_interval_series", "queue_depth"]


#: one reduced series: ``(busy_device, busy_interval, busy_ms,
#: depth_device, depth_interval, depth)``, busy keys unique and in
#: first-overlap order
_Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray,
               np.ndarray, np.ndarray, np.ndarray]


def _fold_into(table: Dict[Tuple[int, int], object], parts, dtype):
    """Fold ``(device, interval, value)`` column parts into ``table``
    after its own entries, as per-key ``table.get(key, 0) + value``
    updates in part order would -- and with their insertion order."""
    if not parts:
        return table
    if table:
        keys = np.array(list(table), dtype=np.int64).reshape(-1, 2)
        parts = [(keys[:, 0], keys[:, 1],
                  np.fromiter(table.values(), dtype, len(table)))] \
            + parts
    dev = np.concatenate([p[0] for p in parts])
    k = np.concatenate([p[1] for p in parts])
    val = np.concatenate([p[2] for p in parts])
    if not dev.size:
        return table
    n_k = int(k.max()) + 1
    uniq, first_seen, inverse = np.unique(
        dev * n_k + k, return_index=True, return_inverse=True)
    # bincount adds each key's values left to right from 0
    sums = np.bincount(inverse, weights=val)
    if dtype is not np.float64:
        sums = np.rint(sums).astype(dtype)
    out: Dict[Tuple[int, int], object] = {}
    for j in np.argsort(first_seen, kind="stable").tolist():
        key = int(uniq[j])
        out[(key // n_k, key % n_k)] = sums[j].item()
    return out


class ModuleSeries:
    """Busy time and boundary queue depth per (device, interval).

    ``busy_ms[(d, k)]`` is device ``d``'s in-service time inside
    interval ``k``; utilisation is that over ``interval_ms``.
    ``depth[(d, k)]`` is the number of requests sitting in ``d``'s
    queue (issued, not yet started) at the instant interval ``k``
    begins.

    :func:`module_interval_series` results and :meth:`merge` keep the
    series as column chunks; the two dicts are built on first read,
    as the left fold of the chunks (per key: the earlier total plus
    the chunk's, in merge order -- the float order of per-key dict
    updates).
    """

    def __init__(self, interval_ms: float = 0.0, n_devices: int = 0):
        self.interval_ms = float(interval_ms)
        self.n_devices = int(n_devices)
        self._busy: Dict[Tuple[int, int], float] = {}
        self._depth: Dict[Tuple[int, int], int] = {}
        self._chunks: List[_Chunk] = []

    @property
    def busy_ms(self) -> Dict[Tuple[int, int], float]:
        self._fold()
        return self._busy

    @property
    def depth(self) -> Dict[Tuple[int, int], int]:
        self._fold()
        return self._depth

    def _fold(self) -> None:
        chunks = self._chunks
        if chunks:
            self._chunks = []
            self._busy = _fold_into(self._busy,
                                    [c[:3] for c in chunks], np.float64)
            self._depth = _fold_into(self._depth,
                                     [c[3:] for c in chunks], np.int64)

    def _as_chunks(self) -> List[_Chunk]:
        """This series' state as chunks, for :meth:`merge`."""
        head: List[_Chunk] = []
        if self._busy or self._depth:
            busy = np.array(list(self._busy), np.int64).reshape(-1, 2)
            depth = np.array(list(self._depth), np.int64).reshape(-1, 2)
            head.append((busy[:, 0], busy[:, 1],
                         np.fromiter(self._busy.values(), np.float64,
                                     len(self._busy)),
                         depth[:, 0], depth[:, 1],
                         np.fromiter(self._depth.values(), np.int64,
                                     len(self._depth))))
        return head + self._chunks

    def intervals(self) -> List[int]:
        keys = set(k for _, k in self.busy_ms) \
            | set(k for _, k in self.depth)
        return sorted(keys)

    def utilisation(self, device: int, interval: int) -> float:
        if self.interval_ms <= 0:
            return 0.0
        return self.busy_ms.get((device, interval), 0.0) / self.interval_ms

    def rows(self) -> List[Tuple[int, int, float, int]]:
        """Sorted ``(device, interval, busy_ms, depth)`` rows."""
        busy, depth = self.busy_ms, self.depth
        keys = sorted(set(busy) | set(depth))
        return [(d, k, busy.get((d, k), 0.0),
                 depth.get((d, k), 0)) for d, k in keys]

    def merge(self, other: "ModuleSeries") -> None:
        """Fold another series in (sums busy time and depths)."""
        if self.interval_ms == 0.0:
            self.interval_ms = other.interval_ms
        self.n_devices = max(self.n_devices, other.n_devices)
        self._chunks.extend(other._as_chunks())

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"interval_ms": self.interval_ms,
                "n_devices": self.n_devices,
                "rows": [[d, k, busy, depth]
                         for d, k, busy, depth in self.rows()]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleSeries":
        series = cls(interval_ms=float(data.get("interval_ms", 0.0)),  # type: ignore[arg-type]
                     n_devices=int(data.get("n_devices", 0)))  # type: ignore[arg-type]
        for d, k, busy, depth in data.get("rows", ()):  # type: ignore[union-attr]
            key = (int(d), int(k))
            if busy:
                series.busy_ms[key] = float(busy)
            if depth:
                series.depth[key] = int(depth)
        return series


def _measured(played) -> np.ndarray:
    """Mask of the rows of a :class:`~repro.flash.played.PlayedTable`
    that occupied a device: served, with a device and a completion.

    Rejected and failed requests, replicated write masters
    (``device == -1``) and rows whose service is still to be replayed
    (placeholders: device ``-1``, completion ``0``) are left out.
    """
    keep = played.served
    keep &= played.device >= 0
    keep &= played.completed > 0
    return keep


def module_interval_series(played, n_devices: int,
                           interval_ms: float) -> ModuleSeries:
    """Compute the per-module series from a played table.

    Pure function of the request timestamps: for every measured row
    (served, on a device, completed), its ``[started, completed)``
    service span is apportioned to the intervals it overlaps, and its
    ``[issued, started)`` wait contributes to the queue depth at any
    boundary it straddles.  Busy time per ``(device, interval)`` sums
    the overlaps in row order, the float order of the reference
    per-row loop.
    """
    series = ModuleSeries(interval_ms=interval_ms, n_devices=n_devices)
    if interval_ms <= 0:
        raise ValueError("interval_ms must be positive")
    keep = _measured(played)
    if not keep.any():
        return series
    device = played.device[keep].astype(np.int64)
    issued = played.issued[keep]
    started = played.started[keep]
    completed = played.completed[keep]
    # (row, interval) pairs each service span overlaps, row-major
    first = (started / interval_ms + 1e-9).astype(np.int64)
    stop = np.ceil(completed / interval_ms - 1e-9).astype(np.int64)
    span = np.maximum(stop - first, 0)
    pair_row = np.repeat(np.arange(device.size), span)
    k = np.arange(pair_row.size) \
        - np.repeat(np.cumsum(span) - span, span) + first[pair_row]
    lo = k * interval_ms
    hi = lo + interval_ms
    overlap = np.minimum(completed[pair_row], hi) \
        - np.maximum(started[pair_row], lo)
    pos = overlap > 0
    n_k = int(stop.max()) + 1
    # one int key per (device, interval); keys keep their
    # first-overlap order, as the reference loop inserts them, and
    # bincount adds each key's overlaps left to right from 0.0
    keys, first_seen, inverse = np.unique(
        device[pair_row[pos]] * n_k + k[pos], return_index=True,
        return_inverse=True)
    busy = np.bincount(inverse, weights=overlap[pos])
    order = np.argsort(first_seen, kind="stable")
    keys = keys[order]
    # depth at boundary t = (#issued <= t) - (#started <= t): a row
    # counts at boundaries k_in <= k < k_out, the first boundaries at
    # or past its issue and its start, tallied as +1/-1 steps
    last_boundary = max(0, int(
        (completed / interval_ms - 1e-9).astype(np.int64).max()))
    boundaries = np.arange(last_boundary + 1, dtype=np.float64) \
        * interval_ms
    k_in = np.searchsorted(boundaries, issued, side="left")
    k_out = np.searchsorted(boundaries, started, side="left")
    wait = k_in != k_out
    width = last_boundary + 2
    steps = np.bincount(device[wait] * width + k_in[wait],
                        minlength=(int(device.max()) + 1) * width) \
        - np.bincount(device[wait] * width + k_out[wait],
                      minlength=(int(device.max()) + 1) * width)
    depth = np.cumsum(steps.reshape(-1, width), axis=1)[:, :-1]
    depth_dev, depth_k = np.nonzero(depth > 0)
    series._chunks.append((keys // n_k, keys % n_k, busy[order],
                           depth_dev, depth_k,
                           depth[depth_dev, depth_k]))
    return series


def queue_depth(played, boundary_ms: float) -> int:
    """Requests sitting in any device queue (issued, not yet started)
    at ``boundary_ms``: the sum over devices of
    :func:`module_interval_series`'s depth at that boundary, read
    straight off the measured rows."""
    keep = _measured(played)
    return int(np.count_nonzero(played.issued[keep] <= boundary_ms)
               - np.count_nonzero(played.started[keep] <= boundary_ms))
