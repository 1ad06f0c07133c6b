"""I/O-driver response-time accounting.

The paper compares allocation schemes "with respect to their I/O driver
response times, which is defined as the time between sending the I/O
request and receiving the corresponding response" (§V-C1).  This module
accumulates those samples and reports the avg / std / max rows of
Table III as well as per-interval series for Figures 8-10 and 12.

:class:`ResponseStats` is one stream of samples folded into a mergeable
log-bucket histogram (:class:`repro.obs.metrics.Histogram`) plus exact
streaming moments: error-free sums of ``x - K`` and ``(x - K)**2``,
shifted by the *first* sample ``K`` so constant-latency runs report a
standard deviation of exactly zero.  :meth:`ResponseStats.state` is
the comparable signature the identity tests and determinism probes
hash.

:class:`IntervalSeries` holds one such state per interval, stored as
columns (interval, response, delay) rather than as objects, and
materialises every interval in one vectorised pass on first read.

**What the state depends on.**  The histogram, the sample count and
the delay accounting are exact functions of the sample *multiset*.
The moments are not: the shift is the first sample, and folding in a
state recorded with another shift ``K_o`` re-shifts it by
``d = K_o - K``, which adds the rounded terms ``fl(n*d)`` to the first
moment and ``fl(fl(2d) * value(m1_o)) + fl(fl(n*d) * d)`` to the
second.  So ``state()`` -- and, through that rounding, ``avg`` and
``std`` -- depend on which sample was recorded first and on the order
of merges.  The contract is the *left fold*: a series equals folding
its writes (records and merged-in series) in the order they were
made, interval by interval, and :meth:`IntervalSeries.overall` equals
folding the intervals in ascending order.  Identical write sequences
-- e.g. the DES and the fast path, which record the same samples in
the same order -- therefore give bit-identical statistics.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import ExactSum, Histogram, exact_expansion

__all__ = ["ResponseStats", "IntervalSeries", "FOLD_THRESHOLD"]

#: fold the pending sample buffer into the histogram/moments once it
#: reaches this many entries (bounds memory without changing results:
#: the shift is fixed by the first fold and the sums are exact)
FOLD_THRESHOLD = 32768


class ResponseStats:
    """Streaming response-time statistics (bounded memory).

    Samples are recorded via :meth:`record`; summaries read from the
    folded histogram-plus-moments state, never from a stored sample
    list.  Percentiles other than 0 and 100 are therefore log-bucket
    estimates (within one bucket width, ~3.9 % relative); avg, std,
    max, min and the delay accounting remain exact.
    """

    __slots__ = ("n_total", "n_delayed", "_pending", "_hist",
                 "_shift", "_m1", "_m2", "_delay_sum")

    def __init__(self):
        self.n_total = 0
        self.n_delayed = 0
        self._pending: List[float] = []
        self._hist: Optional[Histogram] = None
        self._shift: Optional[float] = None
        self._m1 = ExactSum()
        self._m2 = ExactSum()
        self._delay_sum = ExactSum()

    @classmethod
    def _folded(cls, n_total: int, n_delayed: int, shift: float,
                m1: List[float], m2: List[float], delay_sum: List[float],
                hist: Histogram) -> "ResponseStats":
        """A non-empty stats object from already-folded state."""
        st = cls()
        st.n_total = n_total
        st.n_delayed = n_delayed
        st._shift = shift
        st._m1 = ExactSum(m1)
        st._m2 = ExactSum(m2)
        st._delay_sum = ExactSum(delay_sum)
        st._hist = hist
        return st

    # -- recording -------------------------------------------------------
    def record(self, response_ms: float, delay_ms: float = 0.0) -> None:
        """Record one completed request.

        Parameters
        ----------
        response_ms:
            Time from (re)issue to completion.
        delay_ms:
            Admission delay before issue; > 0 marks the request as
            *delayed* for the Figure 8(c,d) accounting.
        """
        self._pending.append(response_ms)
        self.n_total += 1
        if delay_ms > 0:
            self._delay_sum.add(delay_ms)
            self.n_delayed += 1
        if len(self._pending) >= FOLD_THRESHOLD:
            self._fold()

    def _fold(self) -> None:
        if not self._pending:
            return
        arr = np.asarray(self._pending, dtype=np.float64)
        self._pending = []
        if self._hist is None:
            self._hist = Histogram()
        self._hist.record_array(arr)
        if self._shift is None:
            self._shift = float(arr[0])
        centred = arr - self._shift
        self._m1.add_many(centred)
        self._m2.add_many(centred * centred)

    # -- summary ---------------------------------------------------------
    @property
    def avg(self) -> float:
        self._fold()
        if self.n_total == 0 or self._shift is None:
            return 0.0
        return self._shift + self._m1.value / self.n_total

    @property
    def std(self) -> float:
        self._fold()
        if self.n_total == 0:
            return 0.0
        mean_centred = self._m1.value / self.n_total
        var = self._m2.value / self.n_total - mean_centred * mean_centred
        return math.sqrt(var) if var > 0 else 0.0

    @property
    def max(self) -> float:
        self._fold()
        return self._hist.max if self._hist is not None else 0.0

    @property
    def min(self) -> float:
        self._fold()
        return self._hist.min if self._hist is not None else 0.0

    def histogram(self) -> Optional[Histogram]:
        """The folded response-time histogram (None when empty)."""
        self._fold()
        return self._hist

    def percentile(self, q: float) -> float:
        """Response-time percentile ``q`` in [0, 100].

        Exact at 0 and 100 (tracked min/max); elsewhere a log-bucket
        estimate within one bucket width of the sample percentile.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        self._fold()
        if self._hist is None:
            return 0.0
        return self._hist.quantile(q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def avg_delay(self) -> float:
        """Mean delay over *delayed* requests only (paper Fig 8c)."""
        if self.n_delayed == 0:
            return 0.0
        return self._delay_sum.value / self.n_delayed

    @property
    def pct_delayed(self) -> float:
        """Percentage of requests that were delayed (paper Fig 8d)."""
        return 100.0 * self.n_delayed / self.n_total if self.n_total else 0.0

    def summary(self) -> Dict[str, float]:
        """The Table III row for this run."""
        return {"avg": self.avg, "std": self.std, "max": self.max,
                "avg_delay": self.avg_delay,
                "pct_delayed": self.pct_delayed, "n": float(self.n_total)}

    # -- identity ---------------------------------------------------------
    def state(self) -> Tuple:
        """Full comparable state.

        Equal for equal record sequences; the shift (first sample)
        enters the moments, see the module docstring.  The fastpath
        identity tests and the determinism probes compare/hash exactly
        this.
        """
        self._fold()
        return (self.n_total, self.n_delayed, self._shift,
                self._m1.value, self._m2.value, self._delay_sum.value,
                self._hist.state() if self._hist is not None else None)


#: an empty raw (interval, response, delay) chunk
_EMPTY_CHUNK = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))


def _groups(keys: np.ndarray
            ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Stable grouping of ``keys``: ``(order, unique, bounds)``.

    ``keys[order]`` is sorted with equal keys in input order (``order``
    is None when ``keys`` already is), ``unique`` are the distinct keys
    ascending and group ``g`` is ``bounds[g]:bounds[g + 1]`` of the
    sorted keys.
    """
    if bool(np.all(keys[1:] >= keys[:-1])):
        order, ordered = None, keys
    else:
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(
        (np.ones(min(1, keys.size), dtype=bool),
         ordered[1:] != ordered[:-1])))
    return order, ordered[starts], np.append(starts, keys.size)


def _group_fsum(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each ``values[bounds[g]:bounds[g+1]]``:
    ``math.fsum`` per group, except that one- and two-term groups are
    vectorised (one IEEE addition is already correctly rounded)."""
    starts, sizes = bounds[:-1], np.diff(bounds)
    out = np.zeros(sizes.size)
    one = sizes == 1
    out[one] = values[starts[one]]
    two = starts[sizes == 2]
    out[sizes == 2] = values[two] + values[two + 1]
    many = np.flatnonzero(sizes > 2)
    if many.size:
        view, fsum = memoryview(values), math.fsum
        out[many] = [fsum(view[a:b]) for a, b in
                     zip(starts[many].tolist(), bounds[many + 1].tolist())]
    return out


def _sorted_terms(groups: Sequence[np.ndarray],
                  terms: Sequence[np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated ``terms`` grouped by their ``groups`` ids, with the
    group bounds (every interval has at least one term)."""
    order, _, bounds = _groups(np.concatenate(groups))
    values = np.concatenate(terms)
    return (values if order is None else values[order]), bounds


class _Table:
    """The materialised state of one :class:`IntervalSeries`.

    Per interval ``g`` (``iv`` ascending): its shift ``K[g]``; its
    samples ``x``/``d`` (responses, delays) in ``bounds[g]:bounds[g+1]``;
    and the exact terms of its first and second moments in
    ``m1_bounds``/``m2_bounds`` slices of ``m1``/``m2`` -- the centred
    samples and their squares, plus one re-shift term per fold step
    that had a nonzero shift difference.  Immutable once built; the
    rounded first moments and the overall fold are cached on first use.
    """

    __slots__ = ("iv", "K", "bounds", "x", "d", "m1", "m1_bounds", "m2",
                 "m2_bounds", "_m1v", "_overall")

    def __init__(self, iv, K, bounds, x, d, m1, m1_bounds, m2, m2_bounds):
        self.iv, self.K, self.bounds, self.x, self.d = iv, K, bounds, x, d
        self.m1, self.m1_bounds = m1, m1_bounds
        self.m2, self.m2_bounds = m2, m2_bounds
        self._m1v: Optional[np.ndarray] = None
        self._overall: Optional[Tuple] = None

    def __reduce__(self):
        return (_Table, (self.iv, self.K, self.bounds, self.x, self.d,
                         self.m1, self.m1_bounds, self.m2, self.m2_bounds))

    # -- building --------------------------------------------------------
    @classmethod
    def build(cls, parts: Sequence) -> "_Table":
        """Fold ``parts`` -- raw ``(interval, response, delay)`` column
        chunks and merged-in tables, in write order -- into one table."""
        if len(parts) == 1 and isinstance(parts[0], _Table):
            return parts[0]
        raw = [p for p in parts if not isinstance(p, _Table)]
        tables = [p for p in parts if isinstance(p, _Table)]
        raw_iv, raw_x, raw_d = (np.concatenate(c) for c in zip(*raw)) \
            if raw else _EMPTY_CHUNK
        # each interval's shift comes from its first write: the first
        # raw sample, or the shift of the first table holding it
        order, iv, firsts = _groups(np.concatenate(
            [p.iv if isinstance(p, _Table) else p[0] for p in parts]))
        firsts = firsts[:-1] if order is None else order[firsts[:-1]]
        K = np.concatenate(
            [p.K if isinstance(p, _Table) else p[1] for p in parts])[firsts]
        # samples: their order inside an interval does not matter
        order, _, bounds = _groups(np.concatenate(
            [raw_iv] + [np.repeat(t.iv, np.diff(t.bounds))
                        for t in tables]))
        x = np.concatenate([raw_x] + [t.x for t in tables])
        d = np.concatenate([raw_d] + [t.d for t in tables])
        if order is not None:
            x, d = x[order], d[order]
        # moment terms: raw samples centred on the interval's shift ...
        centred = raw_x - K[np.searchsorted(iv, raw_iv)]
        g1, t1 = [raw_iv], [centred]
        g2, t2 = [raw_iv], [centred * centred]
        for t in tables:
            # ... and each table's own terms, re-shifted to this one
            g1.append(np.repeat(t.iv, np.diff(t.m1_bounds)))
            t1.append(t.m1)
            g2.append(np.repeat(t.iv, np.diff(t.m2_bounds)))
            t2.append(t.m2)
            delta = t.K - K[np.searchsorted(iv, t.iv)]
            nz = np.flatnonzero(delta)
            dn = delta[nz]
            n_delta = t.n_total()[nz] * dn
            g1.append(t.iv[nz])
            t1.append(n_delta)
            g2 += [t.iv[nz], t.iv[nz]]
            t2 += [(2.0 * dn) * t.m1v()[nz], n_delta * dn]
        m1, m1_bounds = _sorted_terms(g1, t1)
        m2, m2_bounds = _sorted_terms(g2, t2)
        return cls(iv, K, bounds, x, d, m1, m1_bounds, m2, m2_bounds)

    # -- per-interval columns --------------------------------------------
    def n_total(self) -> np.ndarray:
        """Each interval's sample count."""
        return np.diff(self.bounds)

    def m1v(self) -> np.ndarray:
        """Each interval's first moment, correctly rounded (the
        ``ExactSum.value`` a re-shift multiplies)."""
        if self._m1v is None:
            self._m1v = _group_fsum(self.m1, self.m1_bounds)
        return self._m1v

    # -- reading ---------------------------------------------------------
    def stats(self, g: int) -> ResponseStats:
        """Interval ``g``'s state as a fresh :class:`ResponseStats`."""
        a, b = int(self.bounds[g]), int(self.bounds[g + 1])
        hist = Histogram()
        hist.record_array(self.x[a:b])
        delays = self.d[a:b]
        delays = delays[delays > 0]
        m1 = self.m1[self.m1_bounds[g]:self.m1_bounds[g + 1]]
        m2 = self.m2[self.m2_bounds[g]:self.m2_bounds[g + 1]]
        return ResponseStats._folded(
            b - a, int(delays.size), float(self.K[g]),
            exact_expansion(memoryview(m1)), exact_expansion(memoryview(m2)),
            exact_expansion(memoryview(delays)), hist)

    def overall(self) -> ResponseStats:
        """Every interval folded in ascending order, in one pass."""
        if not self.iv.size:
            return ResponseStats()
        if self._overall is None:
            # interval g joins with shift difference delta[g]; only
            # nonzero differences add re-shift terms (the fold's
            # ``if delta`` branch)
            delta = self.K - self.K[0]
            nz = np.flatnonzero(delta)
            dn = delta[nz]
            n_delta = self.n_total()[nz] * dn
            m1 = exact_expansion(memoryview(self.m1), memoryview(n_delta))
            m2 = exact_expansion(
                memoryview(self.m2),
                memoryview((2.0 * dn) * self.m1v()[nz]),
                memoryview(n_delta * dn))
            delays = self.d[self.d > 0]
            hist = Histogram()
            hist.record_array(self.x)
            self._overall = (int(self.x.size), int(delays.size),
                             float(self.K[0]), m1, m2,
                             exact_expansion(memoryview(delays)), hist)
        n, nd, shift, m1, m2, dsum, hist = self._overall
        return ResponseStats._folded(n, nd, shift, m1, m2, dsum,
                                     hist.copy())

    def state(self) -> Tuple:
        """``IntervalSeries.state()``: ``(interval, stats.state())``
        per interval."""
        return tuple((i, self.stats(g).state())
                     for g, i in enumerate(self.iv.tolist()))


class IntervalSeries:
    """Per-interval response statistics (Figures 8-12 series).

    Each completed request is attributed to an interval index; the
    series then exposes aligned per-interval arrays.

    Storage is columnar and O(samples): each sample's response and
    delay grouped by interval, the exact moment terms (about two per
    sample) and a few per-interval columns -- a few dozen bytes per
    sample, however many intervals there are.
    Writes (:meth:`record`, :meth:`record_array`, :meth:`merge`) are
    appended in order; the first read folds them, in one vectorised
    pass, into a table that every read shares until the next write.
    """

    __slots__ = ("_parts", "_pending", "_table")

    def __init__(self):
        #: raw (interval, response, delay) chunks and merged-in tables,
        #: in write order
        self._parts: List = []
        #: :meth:`record` buffer: intervals, responses, delays
        self._pending: Tuple[List, List, List] = ([], [], [])
        self._table: Optional[_Table] = None

    # -- writing ---------------------------------------------------------
    def record(self, interval: int, response_ms: float,
               delay_ms: float = 0.0) -> None:
        """Record one completed request; ``delay_ms > 0`` marks it
        delayed."""
        intervals, responses, delays = self._pending
        intervals.append(interval)
        responses.append(response_ms)
        delays.append(delay_ms)
        self._table = None

    def record_array(self, intervals, responses,
                     delays=None) -> None:
        """Bulk :meth:`record`, in array order: aligned 1-D
        ``intervals``, ``responses`` and (optional) ``delays``."""
        iv = np.array(intervals, dtype=np.int64)
        x = np.array(responses, dtype=np.float64)
        d = np.zeros(x.size) if delays is None \
            else np.array(delays, dtype=np.float64)
        if not iv.shape == x.shape == d.shape == (x.size,):
            raise ValueError("record_array needs aligned 1-D intervals, "
                             "responses and delays")
        if not x.size:
            return
        self._flush()
        self._parts.append((iv, x, d))
        self._table = None

    def merge(self, other: "IntervalSeries") -> None:
        """Fold another series in, interval by interval.

        ``other`` is snapshotted now; per interval its state joins this
        one as the next left-fold step.  The result depends on merge
        order (see the module docstring): rolling up shards in a fixed
        order is deterministic, but not equal to recording their
        concatenated samples.
        """
        table = other._materialise()
        if table.iv.size:
            self._flush()
            self._parts.append(table)
            self._table = None

    def _flush(self) -> None:
        intervals, responses, delays = self._pending
        if intervals:
            self._parts.append((np.asarray(intervals, dtype=np.int64),
                                np.asarray(responses, dtype=np.float64),
                                np.asarray(delays, dtype=np.float64)))
            self._pending = ([], [], [])

    def _materialise(self) -> _Table:
        """The folded table, rebuilt only after a write.  Building
        replaces the write log with the table itself, which folds on
        as the first write of any later rebuild."""
        if self._table is None:
            self._flush()
            table = _Table.build(self._parts or [_EMPTY_CHUNK])
            self._parts = [table] if table.iv.size else []
            self._table = table
        return self._table

    def __getstate__(self):
        return self._materialise()

    def __setstate__(self, table: _Table) -> None:
        self._parts = [table] if table.iv.size else []
        self._pending = ([], [], [])
        self._table = table

    # -- reading ---------------------------------------------------------
    def intervals(self) -> List[int]:
        return self._materialise().iv.tolist()

    def stats(self, interval: int) -> ResponseStats:
        """Interval ``interval``'s statistics, as a fresh object.

        Read-only: an interval with no samples gives an empty
        :class:`ResponseStats` and is *not* added to the series.
        """
        table = self._materialise()
        g = int(np.searchsorted(table.iv, interval))
        if g == table.iv.size or table.iv[g] != interval:
            return ResponseStats()
        return table.stats(g)

    def series(self, attr: str) -> Tuple[List[int], List[float]]:
        """``(interval_indices, values)`` for a ResponseStats attribute."""
        table = self._materialise()
        idx = table.iv.tolist()
        return idx, [getattr(table.stats(g), attr)
                     for g in range(len(idx))]

    def overall(self) -> ResponseStats:
        """All intervals folded into one summary, in ascending interval
        order."""
        return self._materialise().overall()

    def state(self) -> Tuple:
        """Comparable signature over all intervals: ``(interval,
        stats(interval).state())`` pairs (see
        :meth:`ResponseStats.state`)."""
        return self._materialise().state()
