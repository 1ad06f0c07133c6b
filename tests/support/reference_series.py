"""Reference per-object interval statistics: the oracle for
:mod:`repro.flash.metrics`.

One :class:`RefResponseStats` object per interval, folded sample by
sample and merged object by object -- the straightforward left fold
that the columnar :class:`repro.flash.metrics.IntervalSeries` must
reproduce bit for bit.  Self-contained on purpose: exact sums are the
plain Shewchuk ``add`` loop and histogram buckets use ``bisect``, so a
bug in the library's bulk primitives cannot hide in the oracle.
``state()`` tuples have the library's shape.
"""

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS

#: pending samples fold once this many accumulate (patchable, so
#: property tests can push intervals past it cheaply)
FOLD_THRESHOLD = 32768

_LO, _HI, _PER_DECADE = DEFAULT_LATENCY_BUCKETS
_EDGES = (float(_LO) * np.power(
    10.0, np.arange(int(round(math.log10(_HI / _LO) * _PER_DECADE)) + 1,
                    dtype=np.float64) / _PER_DECADE)).tolist()
_LAYOUT = (float(_LO), float(_HI), int(_PER_DECADE))


class RefSum:
    """Shewchuk partials, one ``add`` at a time."""

    def __init__(self):
        self.partials: List[float] = []

    def add(self, x: float) -> None:
        partials, x, i = self.partials, float(x), 0
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

    def merge(self, other: "RefSum") -> None:
        for p in list(other.partials):
            self.add(p)

    @property
    def value(self) -> float:
        return math.fsum(self.partials)


class RefHistogram:
    """Bucket counts, extremes and exact sum of the library layout."""

    def __init__(self):
        self.counts = [0] * (len(_EDGES) + 1)
        self.count = 0
        self.lo = math.inf
        self.hi = -math.inf
        self.total = RefSum()

    def record(self, value: float) -> None:
        self.counts[bisect_right(_EDGES, value)] += 1
        self.count += 1
        self.lo = min(self.lo, value)
        self.hi = max(self.hi, value)
        self.total.add(value)

    def merge(self, other: "RefHistogram") -> None:
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.lo = min(self.lo, other.lo)
        self.hi = max(self.hi, other.hi)
        self.total.merge(other.total)

    def state(self) -> Tuple:
        return (_LAYOUT, self.count, tuple(self.counts),
                self.lo if self.count else 0.0,
                self.hi if self.count else 0.0, self.total.value)


class RefResponseStats:
    """Per-interval statistics, folded sample by sample."""

    def __init__(self):
        self.n_total = 0
        self.n_delayed = 0
        self._pending: List[float] = []
        self._hist: Optional[RefHistogram] = None
        self._shift: Optional[float] = None
        self._m1, self._m2, self._delay_sum = RefSum(), RefSum(), RefSum()

    def record(self, response_ms: float, delay_ms: float = 0.0) -> None:
        self._pending.append(float(response_ms))
        self.n_total += 1
        if delay_ms > 0:
            self._delay_sum.add(delay_ms)
            self.n_delayed += 1
        if len(self._pending) >= FOLD_THRESHOLD:
            self._fold()

    def _fold(self) -> None:
        if not self._pending:
            return
        if self._hist is None:
            self._hist = RefHistogram()
        if self._shift is None:
            self._shift = self._pending[0]
        for x in self._pending:
            self._hist.record(x)
            centred = x - self._shift
            self._m1.add(centred)
            self._m2.add(centred * centred)
        self._pending = []

    def merge(self, other: "RefResponseStats") -> None:
        other._fold()
        self._fold()
        self.n_total += other.n_total
        self.n_delayed += other.n_delayed
        self._delay_sum.merge(other._delay_sum)
        if other._hist is None:
            return
        if self._hist is None:
            self._hist = RefHistogram()
        self._hist.merge(other._hist)
        if self._shift is None:
            self._shift = other._shift
            self._m1.merge(other._m1)
            self._m2.merge(other._m2)
            return
        delta = other._shift - self._shift
        self._m1.merge(other._m1)
        self._m2.merge(other._m2)
        if delta:
            n = other.n_total
            self._m1.add(n * delta)
            self._m2.add(2.0 * delta * other._m1.value)
            self._m2.add(n * delta * delta)

    # -- the attributes IntervalSeries.series reads ----------------------
    @property
    def avg(self) -> float:
        self._fold()
        if self.n_total == 0:
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
        return self._hist.state()[4] if self._hist is not None else 0.0

    @property
    def min(self) -> float:
        self._fold()
        return self._hist.state()[3] if self._hist is not None else 0.0

    @property
    def avg_delay(self) -> float:
        if self.n_delayed == 0:
            return 0.0
        return self._delay_sum.value / self.n_delayed

    @property
    def pct_delayed(self) -> float:
        return 100.0 * self.n_delayed / self.n_total if self.n_total else 0.0

    def state(self) -> Tuple:
        self._fold()
        return (self.n_total, self.n_delayed, self._shift,
                self._m1.value, self._m2.value, self._delay_sum.value,
                self._hist.state() if self._hist is not None else None)


class RefIntervalSeries:
    """A dict of per-interval :class:`RefResponseStats`."""

    def __init__(self):
        self._stats: Dict[int, RefResponseStats] = {}

    def _slot(self, interval: int) -> RefResponseStats:
        st = self._stats.get(interval)
        if st is None:
            st = self._stats[interval] = RefResponseStats()
        return st

    def record(self, interval: int, response_ms: float,
               delay_ms: float = 0.0) -> None:
        self._slot(int(interval)).record(response_ms, delay_ms)

    def record_array(self, intervals, responses, delays=None) -> None:
        if delays is None:
            delays = [0.0] * len(responses)
        for i, x, d in zip(intervals, responses, delays):
            self.record(int(i), float(x), float(d))

    def intervals(self) -> List[int]:
        return sorted(self._stats)

    def stats(self, interval: int) -> RefResponseStats:
        return self._stats.get(interval, RefResponseStats())

    def series(self, attr: str) -> Tuple[List[int], List[float]]:
        idx = self.intervals()
        return idx, [getattr(self._stats[i], attr) for i in idx]

    def overall(self) -> RefResponseStats:
        merged = RefResponseStats()
        for interval in self.intervals():
            merged.merge(self._stats[interval])
        return merged

    def merge(self, other: "RefIntervalSeries") -> None:
        for interval, st in list(other._stats.items()):
            self._slot(interval).merge(st)

    def state(self) -> Tuple:
        return tuple((i, self._stats[i].state()) for i in self.intervals())
