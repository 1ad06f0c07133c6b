"""The :class:`Trace` table: block requests as a structured array.

Columns (dtype ``TRACE_DTYPE``):

* ``arrival_ms`` -- request arrival time in milliseconds,
* ``device`` -- the device/volume named by the original trace (the
  "original stand" of §V-D, where each request is served by the device
  the trace says),
* ``block`` -- data block (bucket) number, 8 KB-aligned,
* ``size_bytes`` -- request size,
* ``is_read`` -- read flag (the paper's experiments are read-only).

The class provides the small slice of pandas the project needs:
construction from arrays, sorting, masking, concatenation and
8 KB block alignment.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["Trace", "TRACE_DTYPE", "BLOCK_BYTES", "check_part_arrivals"]

#: The paper aligns requests to 8 KB blocks "as in DiskSim" (§V-D).
BLOCK_BYTES = 8192

TRACE_DTYPE = np.dtype([
    ("arrival_ms", np.float64),
    ("device", np.int32),
    ("block", np.int64),
    ("size_bytes", np.int32),
    ("is_read", np.bool_),
])


def _check_arrival_times(arrivals, label: str = "arrival {}",
                         ) -> np.ndarray:
    """Refuse non-finite or negative arrivals; returns them as floats.

    A NaN or infinite arrival is never served, and a negative one
    falls into a negative QoS interval on the fast engines and
    interval 0 on the DES, so every player checks its arrivals with
    this before playing any.  ``label`` formats the first bad index
    into the ``ValueError`` message.
    """
    times = np.asarray(arrivals, dtype=np.float64).reshape(-1)
    ok = times >= 0.0
    ok &= times < np.inf
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ValueError(
            f"{label.format(bad)} is {float(times[bad])!r}; "
            "arrivals must be finite times >= 0")
    return times


def check_part_arrivals(part_idx: int, arrivals) -> None:
    """Refuse a part whose arrivals are not finite, ``>= 0`` and
    non-decreasing, naming the part and the first bad index.

    The online players (the sharded cluster, the replication
    controller) replay a part in arrival order and take its first
    arrival as the interval boundary, so they check every part with
    this before feeding anything.
    """
    times = _check_arrival_times(arrivals,
                                 f"part {part_idx}: arrival {{}}")
    back = np.flatnonzero(times[1:] < times[:-1])
    if back.size:
        bad = int(back[0]) + 1
        raise ValueError(
            f"part {part_idx}: arrival {bad} ({float(times[bad])!r}) "
            f"comes before arrival {bad - 1} "
            f"({float(times[bad - 1])!r}); parts must "
            "be sorted by arrival time")


class Trace:
    """An immutable-by-convention table of block requests."""

    def __init__(self, data: np.ndarray):
        if data.dtype != TRACE_DTYPE:
            raise TypeError(f"expected dtype {TRACE_DTYPE}, got {data.dtype}")
        self._data = data

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_arrays(cls, arrival_ms: Sequence[float],
                    block: Sequence[int],
                    device: Optional[Sequence[int]] = None,
                    size_bytes: Optional[Sequence[int]] = None,
                    is_read: Optional[Sequence[bool]] = None) -> "Trace":
        """Build a trace from parallel columns (missing ones defaulted)."""
        n = len(arrival_ms)
        data = np.zeros(n, dtype=TRACE_DTYPE)
        data["arrival_ms"] = np.asarray(arrival_ms, dtype=np.float64)
        data["block"] = np.asarray(block, dtype=np.int64)
        data["device"] = (np.asarray(device, dtype=np.int32)
                          if device is not None else 0)
        data["size_bytes"] = (np.asarray(size_bytes, dtype=np.int32)
                              if size_bytes is not None else BLOCK_BYTES)
        data["is_read"] = (np.asarray(is_read, dtype=np.bool_)
                           if is_read is not None else True)
        return cls(data)

    @classmethod
    def empty(cls) -> "Trace":
        return cls(np.zeros(0, dtype=TRACE_DTYPE))

    @classmethod
    def concat(cls, traces: Iterable["Trace"]) -> "Trace":
        arrays = [t._data for t in traces]
        if not arrays:
            return cls.empty()
        return cls(np.concatenate(arrays))

    # -- column access ------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def arrival_ms(self) -> np.ndarray:
        return self._data["arrival_ms"]

    @property
    def block(self) -> np.ndarray:
        return self._data["block"]

    @property
    def device(self) -> np.ndarray:
        return self._data["device"]

    @property
    def size_bytes(self) -> np.ndarray:
        return self._data["size_bytes"]

    @property
    def is_read(self) -> np.ndarray:
        return self._data["is_read"]

    # -- transforms -----------------------------------------------------------
    def sorted(self) -> "Trace":
        """Stable sort by arrival time."""
        order = np.argsort(self._data["arrival_ms"], kind="stable")
        return Trace(self._data[order])

    def filter(self, mask: np.ndarray) -> "Trace":
        """Rows where ``mask`` is True."""
        return Trace(self._data[np.asarray(mask, dtype=bool)])

    def reads_only(self) -> "Trace":
        return self.filter(self._data["is_read"])

    def time_slice(self, start_ms: float, end_ms: float) -> "Trace":
        """Rows with ``start_ms <= arrival < end_ms``."""
        a = self._data["arrival_ms"]
        return self.filter((a >= start_ms) & (a < end_ms))

    def shifted(self, offset_ms: float) -> "Trace":
        """Copy with arrival times shifted by ``offset_ms``."""
        data = self._data.copy()
        data["arrival_ms"] += offset_ms
        return Trace(data)

    def aligned_blocks(self) -> "Trace":
        """Expand multi-block requests into unit 8 KB block requests.

        A request of ``size_bytes`` starting at ``block`` becomes
        ``ceil(size / BLOCK_BYTES)`` single-block requests on
        consecutive blocks at the same arrival time (paper §V-D:
        "the requests are aligned to 8 KB of block sizes").
        """
        sizes = np.maximum(1, -(-self._data["size_bytes"] // BLOCK_BYTES))
        total = int(sizes.sum())
        out = np.zeros(total, dtype=TRACE_DTYPE)
        pos = 0
        for row, n in zip(self._data, sizes):
            for j in range(int(n)):
                out[pos] = (row["arrival_ms"], row["device"],
                            row["block"] + j, BLOCK_BYTES, row["is_read"])
                pos += 1
        return Trace(out)

    # -- dunder -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, idx) -> "Trace":
        sub = self._data[idx]
        if isinstance(idx, (int, np.integer)):
            sub = np.asarray([sub], dtype=TRACE_DTYPE)
        return Trace(sub)

    def __repr__(self) -> str:
        span = (f"[{self.arrival_ms.min():.3f}, {self.arrival_ms.max():.3f}]"
                if len(self) else "[]")
        return f"<Trace n={len(self)} span_ms={span}>"
