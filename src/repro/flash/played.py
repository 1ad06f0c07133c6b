"""Played results as columns: the :class:`PlayedTable`.

A play-through's result is one row per request -- its arrival, the
response-time probe timestamps of §V-C1 (issue, queue entry, service
start, completion), the device that served it, its QoS interval and
the admission and fault outcome.  Every consumer reads these in bulk
(interval series, violation counts, percentiles, fingerprints), so
they are stored the way :class:`repro.traces.records.Trace` stores a
trace: one numpy structured array (``PLAYED_DTYPE``), no object per
request.

* :class:`PlayedTable` is the result every player returns.  Column
  properties return views; ``len``, slicing and boolean or index
  masks return tables; ``table[i]`` and iteration return read-only
  :class:`PlayedRequest` row views whose ``.io`` is an
  :class:`~repro.flash.array.IORequest` rebuilt from the row.
* :class:`PlayedLog` is the append-only writer a play-through fills.
  Rows are appended to per-column lists and committed to the array in
  bulk; rows whose service outcome is not known at placement (faulted
  replay, the DES) are written as placeholders and filled in by row
  index when the engine finishes.

The flag word packs ``DELAYED``, ``REJECTED``, ``FAILED`` and
``FAULTED``; ``reason`` is the index of the fail reason in
``FAIL_REASONS``.  Placeholder rows carry the defaults of a fresh
``IORequest`` (device ``-1``, zero timestamps), which is what readers
saw mid-stream before the columns existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.flash.array import IORequest

__all__ = ["PLAYED_DTYPE", "DELAYED", "REJECTED", "FAILED", "FAULTED",
           "FAIL_REASONS", "PlayedRequest", "PlayedTable", "PlayedLog",
           "io_columns", "reason_code"]

PLAYED_DTYPE = np.dtype([
    ("arrival", np.float64),
    ("bucket", np.int64),
    ("is_read", np.bool_),
    ("issued", np.float64),
    ("enqueued", np.float64),
    ("started", np.float64),
    ("completed", np.float64),
    ("device", np.int32),
    ("interval", np.int64),
    ("index", np.int64),
    ("retries", np.int32),
    ("flags", np.uint8),
    ("reason", np.uint8),
])

#: flag-word bits
DELAYED = 1
REJECTED = 2
FAILED = 4
FAULTED = 8

#: fail-reason codes: ``FAIL_REASONS[code]``
FAIL_REASONS = ("", "dead", "read_error", "unavailable")
_REASON_CODE = {reason: code for code, reason in enumerate(FAIL_REASONS)}


def reason_code(reason: str) -> int:
    """The ``reason`` column code of a fail reason string."""
    return _REASON_CODE[reason]


@dataclass(frozen=True)
class PlayedRequest:
    """One played request: a row of a :class:`PlayedTable`.

    Indexing or iterating a table returns these, each around an
    :class:`~repro.flash.array.IORequest` rebuilt from the row
    (writing to it leaves the table unchanged);
    :meth:`PlayedTable.from_requests` converts a sequence of them
    back.
    """

    io: IORequest
    interval: int
    delayed: bool
    #: index of the request in the caller's input arrays
    index: int = -1
    #: True when admission rejected the request outright (reject
    #: policy); the request was never served
    rejected: bool = False

    @property
    def failed(self) -> bool:
        """True when the fault layer lost the request (dead module,
        read retries exhausted, no live replica)."""
        return self.io.failed

    @property
    def response_ms(self) -> float:
        return self.io.response_ms

    @property
    def delay_ms(self) -> float:
        return self.io.delay_ms


def _row_view(row: tuple) -> PlayedRequest:
    (arrival, bucket, is_read, issued, enqueued, started, completed,
     device, interval, index, retries, flags, reason) = row
    io = IORequest(arrival=arrival, bucket=bucket, is_read=is_read,
                   issued_at=issued, device=device, enqueued_at=enqueued,
                   started_at=started, completed_at=completed,
                   failed=bool(flags & FAILED),
                   fail_reason=FAIL_REASONS[reason],
                   faulted=bool(flags & FAULTED), retries=retries)
    return PlayedRequest(io, interval, bool(flags & DELAYED), index,
                         bool(flags & REJECTED))


def io_columns(ios: Sequence) -> Dict[str, np.ndarray]:
    """The service-outcome columns of ``IORequest``-shaped objects.

    Optional fields a bare request-shaped object may lack
    (``enqueued_at``, ``retries``, ``failed``, ``fail_reason``,
    ``faulted``) read as an ``IORequest``'s defaults.
    """
    n = len(ios)
    flags = np.fromiter(
        ((FAILED if getattr(io, "failed", False) else 0)
         | (FAULTED if getattr(io, "faulted", False) else 0)
         for io in ios), np.uint8, n)
    return {
        "issued": np.fromiter((io.issued_at for io in ios),
                              np.float64, n),
        "enqueued": np.fromiter((getattr(io, "enqueued_at", 0.0)
                                 for io in ios), np.float64, n),
        "started": np.fromiter((io.started_at for io in ios),
                               np.float64, n),
        "completed": np.fromiter((io.completed_at for io in ios),
                                 np.float64, n),
        "device": np.fromiter((io.device for io in ios), np.int32, n),
        "retries": np.fromiter((getattr(io, "retries", 0)
                                for io in ios), np.int32, n),
        "flags": flags,
        "reason": np.fromiter(
            (_REASON_CODE[getattr(io, "fail_reason", "")]
             for io in ios), np.uint8, n),
    }


class PlayedTable:
    """One play-through's per-request results, column by column.

    Rows are in play order: the order the driver logged them (the
    order the reference per-request loop appended its objects).
    Immutable by convention, like :class:`repro.traces.records.Trace`.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        if data.dtype != PLAYED_DTYPE:
            raise TypeError(
                f"expected dtype {PLAYED_DTYPE}, got {data.dtype}")
        self._data = data

    # -- constructors -----------------------------------------------------
    @classmethod
    def empty(cls) -> "PlayedTable":
        return cls(np.zeros(0, dtype=PLAYED_DTYPE))

    @classmethod
    def from_requests(cls, played: Sequence) -> "PlayedTable":
        """Convert :class:`PlayedRequest`-shaped objects, in order."""
        n = len(played)
        data = np.zeros(n, dtype=PLAYED_DTYPE)
        if not n:
            return cls(data)
        ios = [p.io for p in played]
        data["arrival"] = np.fromiter((io.arrival for io in ios),
                                      np.float64, n)
        data["bucket"] = np.fromiter((io.bucket for io in ios),
                                     np.int64, n)
        data["is_read"] = np.fromiter((io.is_read for io in ios),
                                      np.bool_, n)
        for name, column in io_columns(ios).items():
            data[name] = column
        data["interval"] = np.fromiter((p.interval for p in played),
                                       np.int64, n)
        data["index"] = np.fromiter((p.index for p in played),
                                    np.int64, n)
        data["flags"] |= np.fromiter(
            ((DELAYED if p.delayed else 0)
             | (REJECTED if p.rejected else 0) for p in played),
            np.uint8, n)
        return cls(data)

    # -- columns ------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def arrival(self) -> np.ndarray:
        return self._data["arrival"]

    @property
    def bucket(self) -> np.ndarray:
        return self._data["bucket"]

    @property
    def is_read(self) -> np.ndarray:
        return self._data["is_read"]

    @property
    def issued(self) -> np.ndarray:
        return self._data["issued"]

    @property
    def enqueued(self) -> np.ndarray:
        return self._data["enqueued"]

    @property
    def started(self) -> np.ndarray:
        return self._data["started"]

    @property
    def completed(self) -> np.ndarray:
        return self._data["completed"]

    @property
    def device(self) -> np.ndarray:
        return self._data["device"]

    @property
    def interval(self) -> np.ndarray:
        return self._data["interval"]

    @property
    def index(self) -> np.ndarray:
        return self._data["index"]

    @property
    def retries(self) -> np.ndarray:
        return self._data["retries"]

    @property
    def flags(self) -> np.ndarray:
        return self._data["flags"]

    @property
    def reason(self) -> np.ndarray:
        return self._data["reason"]

    # -- derived columns ----------------------------------------------------
    @property
    def delayed(self) -> np.ndarray:
        return (self._data["flags"] & DELAYED) != 0

    @property
    def rejected(self) -> np.ndarray:
        return (self._data["flags"] & REJECTED) != 0

    @property
    def failed(self) -> np.ndarray:
        return (self._data["flags"] & FAILED) != 0

    @property
    def faulted(self) -> np.ndarray:
        return (self._data["flags"] & FAULTED) != 0

    @property
    def served(self) -> np.ndarray:
        """Rows with a response time: neither rejected nor failed."""
        return (self._data["flags"] & (REJECTED | FAILED)) == 0

    @property
    def response_ms(self) -> np.ndarray:
        """Issue to completion (``IORequest.response_ms``)."""
        return self._data["completed"] - self._data["issued"]

    @property
    def delay_ms(self) -> np.ndarray:
        """Arrival to issue (``IORequest.delay_ms``)."""
        return self._data["issued"] - self._data["arrival"]

    @property
    def total_ms(self) -> np.ndarray:
        """Arrival to completion (``IORequest.total_ms``)."""
        return self._data["completed"] - self._data["arrival"]

    # -- dunder -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return _row_view(self._data[idx].item())
        return PlayedTable(self._data[idx])

    def __iter__(self) -> Iterator[PlayedRequest]:
        return map(_row_view, self._data.tolist())

    def __repr__(self) -> str:
        return f"<PlayedTable n={len(self)}>"


class PlayedLog:
    """The append-only writer behind a play-through's table.

    :meth:`add` appends one row to per-column lists and commits them to
    a growing structured array every ``_COMMIT_ROWS`` rows, so the
    Python objects pending at once stay bounded whatever the play's
    length; :meth:`table` commits the rest and returns the rows so far
    as a :class:`PlayedTable` view, so a live session can be read at
    every boundary without copying.  :meth:`fill` writes columns of
    rows already logged (the replay's and the DES's service outcomes);
    :meth:`close` commits and trims the array to its rows.

    Rows can also be written a column at a time: :meth:`seek` moves
    the row cursor forward past rows left for :meth:`write`, so rows
    added one by one and rows written by column interleave in play
    order.
    """

    _MIN_CAPACITY = 1024
    _COMMIT_ROWS = 1024

    def __init__(self):
        self._data = np.zeros(0, dtype=PLAYED_DTYPE)
        #: rows before the pending ones: committed, written or skipped
        self._n = 0
        self._pending: List[list] = [[] for _ in PLAYED_DTYPE.names]
        #: ``(pending index, row)`` wherever a :meth:`seek` moved the
        #: row of the pending rows from that index on
        self._seeks: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        """Rows logged, committed or not: the row the next
        :meth:`add` writes."""
        if self._seeks:
            at, row = self._seeks[-1]
            return row + len(self._pending[0]) - at
        return self._n + len(self._pending[0])

    def add(self, arrival: float, bucket: int, is_read: bool,
            issued: float, enqueued: float, started: float,
            completed: float, device: int, interval: int, index: int,
            flags: int, retries: int = 0, reason: int = 0) -> None:
        """Append one row (columns in ``PLAYED_DTYPE`` order)."""
        (c_arrival, c_bucket, c_read, c_issued, c_enqueued, c_started,
         c_completed, c_device, c_interval, c_index, c_retries, c_flags,
         c_reason) = self._pending
        c_arrival.append(arrival)
        c_bucket.append(bucket)
        c_read.append(is_read)
        c_issued.append(issued)
        c_enqueued.append(enqueued)
        c_started.append(started)
        c_completed.append(completed)
        c_device.append(device)
        c_interval.append(interval)
        c_index.append(index)
        c_retries.append(retries)
        c_flags.append(flags)
        c_reason.append(reason)
        if len(c_reason) >= self._COMMIT_ROWS:
            self._commit()

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more rows at once, so a play that
        knows its length commits into one array instead of doubling
        (and copying) one as it goes."""
        n = len(self)
        if n + rows > len(self._data):
            grown = np.zeros(max(2 * len(self._data), n + rows,
                                 self._MIN_CAPACITY), dtype=PLAYED_DTYPE)
            # rows written by column may lie past the committed ones
            grown[:len(self._data)] = self._data
            self._data = grown

    def seek(self, row: int) -> None:
        """Move the row cursor to ``row``: the rows between the last
        one logged and ``row`` stay placeholders for :meth:`write`."""
        n = len(self)
        if row == n:
            return
        if row < n:
            raise ValueError(f"cannot seek back from row {n} to {row}")
        if self._pending[0]:
            self._seeks.append((len(self._pending[0]), row))
        else:
            self._n = row
        self.reserve(0)

    def write(self, rows: np.ndarray, columns: Dict[str, object]) -> None:
        """Write whole rows by column: ``columns`` (name -> aligned
        values or one value) at ``rows``, rows a :meth:`seek` passed
        over; columns left out keep the placeholder's zero."""
        data = self._data
        for name, values in columns.items():
            data[name][rows] = values

    def _commit(self) -> None:
        k = len(self._pending[0])
        if not k:
            return
        end = len(self)
        self.reserve(0)  # room for the pending rows
        if self._seeks:
            # each pending row's own row: runs split where a seek moved
            # the cursor
            at = np.array([0] + [a for a, _ in self._seeks])
            first = np.array([self._n] + [r for _, r in self._seeks])
            rows = np.arange(k) + np.repeat(first - at,
                                            np.diff(np.append(at, k)))
            self._seeks = []
        else:
            rows = slice(self._n, end)
        data = self._data
        for name, column in zip(PLAYED_DTYPE.names, self._pending):
            data[name][rows] = column
            column.clear()
        self._n = end

    def table(self) -> PlayedTable:
        """The rows logged so far, as a view to read now: rows logged
        or filled after the call may not show in it."""
        self._commit()
        return PlayedTable(self._data[:self._n])

    def fill(self, rows, columns: Dict[str, object],
             flags=None) -> None:
        """Write ``columns`` (name -> aligned values) at ``rows``, and
        OR ``flags`` into their flag words."""
        self._commit()
        data = self._data
        for name, values in columns.items():
            data[name][rows] = values
        if flags is not None:
            data["flags"][rows] |= np.asarray(flags, dtype=np.uint8)

    def close(self) -> PlayedTable:
        """Commit, drop the spare capacity and return every row."""
        self._commit()
        if len(self._data) != self._n:
            self._data = self._data[:self._n].copy()
        return PlayedTable(self._data)
