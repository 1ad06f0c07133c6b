"""The metrics registry: counters, gauges and mergeable histograms.

Everything here is built for *deterministic aggregation*: two sessions
that observed the same multiset of values -- in any order, folded in
any grouping -- export bit-identical state.  That is what lets
``repro.runner`` merge per-cell metrics across worker processes
without losing percentiles and without perturbing the byte-identity
guarantees the rest of the repo enforces.

The load-bearing piece is :class:`Histogram`: fixed log-scale buckets
whose state is integer counts plus exact extremes and an *exact* sum
(Shewchuk error-free accumulation, the algorithm behind
``math.fsum``).  Integer adds and exact-real addition are associative
and commutative, so ``Histogram.merge`` is too -- exactly, not
approximately -- which the property tests in
``tests/obs/test_metrics.py`` enforce on randomized partitions.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "ExactSum", "exact_expansion", "sequential_sum",
           "DEFAULT_LATENCY_BUCKETS"]


def exact_expansion(*terms: Iterable[float]) -> List[float]:
    """The unique minimal expansion of the exact sum of ``terms``.

    Each argument is a re-iterable of floats (list, tuple, 1-D float64
    ``memoryview``).  ``math.fsum`` rounds the exact sum of its whole
    input once, in C; greedily peeling off that correctly-rounded value
    and summing again yields an expansion that is a pure function of
    the exact real sum -- any two inputs with the same exact sum give
    the same floats, in ascending magnitude (a valid
    :class:`ExactSum` partials list).  Each peel is one C pass; sums
    of latency samples need two or three.
    """
    peeled: List[float] = []
    while True:
        v = math.fsum(itertools.chain(*terms, peeled))
        if v == 0.0:
            break
        if not math.isfinite(v):
            return [v]
        peeled.append(-v)
    return [-p for p in reversed(peeled)]


def _float_terms(values) -> Iterable[float]:
    """``values`` as a re-iterable for :func:`exact_expansion`."""
    if isinstance(values, np.ndarray):
        return memoryview(np.ascontiguousarray(values, dtype=np.float64)
                          .reshape(-1))
    if isinstance(values, (list, tuple, memoryview)):
        return values
    return list(values)


class ExactSum:
    """Error-free float accumulation (Shewchuk partials).

    The internal ``partials`` list represents the *exact* real sum of
    everything added; :attr:`value` rounds it once, correctly.  Because
    exact-real addition is associative and commutative, merging two
    accumulators in any order yields the same :attr:`value` bit for
    bit -- unlike a running float sum, whose result depends on
    association order.
    """

    __slots__ = ("partials",)

    def __init__(self, partials: Optional[Sequence[float]] = None):
        self.partials: List[float] = list(partials or ())

    def add(self, x: float) -> None:
        """Add one value, keeping the representation exact."""
        partials = self.partials
        x = float(x)
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def add_many(self, values: Iterable[float]) -> None:
        """Add every value at once (C speed, see
        :func:`exact_expansion`); same exact sum as an :meth:`add`
        loop."""
        self.partials = exact_expansion(self.partials, _float_terms(values))

    def merge(self, other: "ExactSum") -> None:
        """Fold ``other`` in; exact, so order never matters."""
        for p in other.partials:
            self.add(p)

    @property
    def value(self) -> float:
        """The correctly-rounded sum."""
        return math.fsum(self.partials)

    def canonical(self) -> List[float]:
        """The unique minimal expansion of the represented sum.

        The internal partials list depends on insertion grouping even
        when the exact sum does not, so serialised state must not
        expose it raw.  Greedily peeling off the correctly-rounded
        remainder yields an expansion that is a pure function of the
        exact real value -- any two accumulators holding the same sum
        export the same floats.
        """
        return exact_expansion(self.partials)

    def copy(self) -> "ExactSum":
        return ExactSum(self.partials)


def sequential_sum(values) -> float:
    """Strict left-to-right float sum (``((v0 + v1) + v2) + ...``).

    :class:`ExactSum`'s counterpart for results that must stay
    bit-identical to a reference per-item loop: ``np.add.accumulate``
    performs exactly the loop's sequential additions, where the
    pairwise ``np.sum`` would reassociate them.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.add.accumulate(arr)[-1])


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = int(value)

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A point-in-time value.

    ``kind="last"`` keeps the most recent :meth:`set` (merges take the
    other side's value when it was ever set -- with the runner's
    submission-index merge order this is deterministic);
    ``kind="max"`` keeps the running maximum, which *is* commutative.
    """

    __slots__ = ("value", "kind", "n_sets")

    def __init__(self, value: float = 0.0, kind: str = "last"):
        if kind not in ("last", "max"):
            raise ValueError(f"unknown gauge kind {kind!r}")
        self.value = float(value)
        self.kind = kind
        self.n_sets = 0

    def set(self, value: float) -> None:
        value = float(value)
        if self.kind == "max":
            if self.n_sets == 0 or value > self.value:
                self.value = value
        else:
            self.value = value
        self.n_sets += 1

    def merge(self, other: "Gauge") -> None:
        if other.n_sets == 0:
            return
        if self.kind == "max":
            if self.n_sets == 0 or other.value > self.value:
                self.value = other.value
        else:
            self.value = other.value
        self.n_sets += other.n_sets


def _log_edges(lo: float, hi: float, per_decade: int) -> np.ndarray:
    """Log-scale bucket edges ``lo * 10**(k / per_decade)`` up to hi."""
    n = int(round(math.log10(hi / lo) * per_decade))
    k = np.arange(n + 1, dtype=np.float64)
    return lo * np.power(10.0, k / per_decade)


@functools.lru_cache(maxsize=None)
def _shared_edges(lo: float, hi: float,
                  per_decade: int) -> Tuple[np.ndarray, Tuple[float, ...]]:
    """One read-only edges array (and its float tuple) per layout,
    shared by every :class:`Histogram` with that layout."""
    edges = _log_edges(lo, hi, per_decade)
    edges.setflags(write=False)
    return edges, tuple(edges.tolist())


#: default layout for latency histograms: 1 ns .. 1 s in milliseconds,
#: 60 buckets per decade (~3.9 % relative bucket width, so quantile
#: estimates are within ~2 % of the true sample quantile)
DEFAULT_LATENCY_BUCKETS = (1e-6, 1e3, 60)


class Histogram:
    """Deterministic fixed-bucket log-scale mergeable histogram.

    Parameters
    ----------
    lo, hi:
        Range covered by the log-scale buckets; values below ``lo``
        land in the underflow bucket, values at or above ``hi`` in the
        overflow bucket.  Exact zero (and anything below ``lo``) is
        underflow -- common for zero-delay samples.
    per_decade:
        Bucket resolution: ``per_decade`` buckets per factor of 10,
        giving a relative bucket width of ``10**(1/per_decade) - 1``.

    State is ``(bucket counts, count, min, max, exact sum)``.  All of
    it is order-independent and :meth:`merge` is exactly associative
    and commutative, so percentile estimates survive any process
    fan-out/merge topology unchanged.
    """

    __slots__ = ("lo", "hi", "per_decade", "_edges", "_edges_list",
                 "counts", "count", "_min", "_max", "_sum")

    def __init__(self, lo: float = DEFAULT_LATENCY_BUCKETS[0],
                 hi: float = DEFAULT_LATENCY_BUCKETS[1],
                 per_decade: int = DEFAULT_LATENCY_BUCKETS[2]):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if per_decade < 1:
            raise ValueError("per_decade must be >= 1")
        self.lo = float(lo)
        self.hi = float(hi)
        self.per_decade = int(per_decade)
        #: the layout's shared read-only edges, and their float-tuple
        #: twin for the scalar (bisect) path; identical floats, so
        #: bisect_right == np.searchsorted 'right'
        self._edges, self._edges_list = _shared_edges(
            self.lo, self.hi, self.per_decade)
        #: counts[0] = underflow, counts[1:-1] = log buckets,
        #: counts[-1] = overflow
        self.counts = np.zeros(len(self._edges_list) + 1, dtype=np.int64)
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = ExactSum()

    # -- layout ----------------------------------------------------------
    @property
    def layout(self) -> Tuple[float, float, int]:
        return (self.lo, self.hi, self.per_decade)

    def edges(self) -> List[float]:
        """Bucket edges (ascending); bucket ``i`` covers
        ``[edges[i-1], edges[i])`` for ``1 <= i <= len(edges) - 1``."""
        return list(self._edges_list)

    # -- recording -------------------------------------------------------
    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self._edges_list, value)] += 1
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._sum.add(value)

    def record_array(self, values: np.ndarray) -> None:
        """Vectorized bucket update; same state as a :meth:`record`
        loop over the same values (the state is order-independent)."""
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        idx = np.searchsorted(self._edges, arr, side="right")
        self.counts += np.bincount(idx, minlength=self.counts.size)
        self.count += int(arr.size)
        amin = float(arr.min())
        amax = float(arr.max())
        if amin < self._min:
            self._min = amin
        if amax > self._max:
            self._max = amax
        self._sum.add_many(arr)

    # -- reading ---------------------------------------------------------
    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def sum(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> float:
        return self._sum.value / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 100]).

        Exact at the extremes (``q=0`` -> min, ``q=100`` -> max);
        elsewhere linear interpolation inside the covering bucket, so
        the estimate is within one bucket width
        (``10**(1/per_decade) - 1`` relative) of the true sample
        quantile.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"quantile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0:
            return self.min
        if q == 100:
            return self.max
        target = q / 100.0 * self.count
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, target, side="left"))
        before = int(cum[idx - 1]) if idx > 0 else 0
        inside = int(self.counts[idx])
        # bucket bounds, clamped to the observed extremes
        lo = self._min if idx == 0 else self._edges_list[idx - 1]
        hi = self._max if idx == self.counts.size - 1 \
            else self._edges_list[idx]
        lo = max(lo, self._min)
        hi = min(hi, self._max)
        if inside <= 0 or hi <= lo:
            return min(max(lo, self._min), self._max)
        frac = (target - before) / inside
        return min(max(lo + frac * (hi - lo), self._min), self._max)

    def percentiles(self) -> Dict[str, float]:
        """The standard latency panel: p50/p95/p99/p999."""
        return {"p50": self.quantile(50), "p95": self.quantile(95),
                "p99": self.quantile(99), "p999": self.quantile(99.9)}

    # -- merging ---------------------------------------------------------
    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in.  Exactly associative and commutative:
        integer count adds, min/max, and exact-real sum."""
        if other.layout != self.layout:
            raise ValueError(
                f"cannot merge histograms with different layouts "
                f"{self.layout} vs {other.layout}")
        self.counts += other.counts
        self.count += other.count
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        self._sum.merge(other._sum)

    def copy(self) -> "Histogram":
        out = Histogram(self.lo, self.hi, self.per_decade)
        out.counts[:] = self.counts
        out.count = self.count
        out._min = self._min
        out._max = self._max
        out._sum = self._sum.copy()
        return out

    def state(self) -> Tuple:
        """Comparable full state (used by the merge property tests)."""
        return (self.layout, self.count, tuple(int(c) for c in self.counts),
                self.min, self.max, self.sum)

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        nonzero = np.flatnonzero(self.counts)
        return {
            "layout": list(self.layout),
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "sum": self.sum,
            "sum_partials": self._sum.canonical(),
            "buckets": [[int(i), int(self.counts[i])] for i in nonzero],
            **self.percentiles(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        lo, hi, per_decade = data["layout"]  # type: ignore[misc]
        hist = cls(lo=float(lo), hi=float(hi), per_decade=int(per_decade))
        for i, c in data.get("buckets", ()):  # type: ignore[union-attr]
            hist.counts[int(i)] = int(c)
        hist.count = int(data["count"])
        if hist.count:
            hist._min = float(data["min"])  # type: ignore[arg-type]
            hist._max = float(data["max"])  # type: ignore[arg-type]
        hist._sum = ExactSum(
            [float(p) for p in data.get("sum_partials", ())])
        return hist


class MetricsRegistry:
    """Named metrics, created on first use, exported in sorted order.

    The registry is deliberately label-free: encode dimensions in the
    metric name (``module.3.served``) so export and merge stay a flat,
    deterministic mapping.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- factories -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str, kind: str = "last") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(kind=kind)
        return metric

    def histogram(self, name: str,
                  lo: float = DEFAULT_LATENCY_BUCKETS[0],
                  hi: float = DEFAULT_LATENCY_BUCKETS[1],
                  per_decade: int = DEFAULT_LATENCY_BUCKETS[2],
                  ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                lo=lo, hi=hi, per_decade=per_decade)
        return metric

    # -- export / merge --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value
                       for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict()
                           for k in sorted(self._histograms)},
        }

    def merge_dict(self, data: Dict[str, object]) -> None:
        """Fold an exported registry payload into this one."""
        for name, value in sorted(
                dict(data.get("counters", {})).items()):
            self.counter(name).inc(int(value))
        for name, value in sorted(dict(data.get("gauges", {})).items()):
            self.gauge(name).set(float(value))
        for name, payload in sorted(
                dict(data.get("histograms", {})).items()):
            incoming = Histogram.from_dict(payload)
            self.histogram(name, *incoming.layout).merge(incoming)
