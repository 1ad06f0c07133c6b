"""Property tests for the mergeable metrics primitives.

The headline property: a :class:`Histogram` is a CRDT-style state --
merging per-partition histograms in *any* grouping and *any* order
reproduces the single-pass state bit for bit.  ``==`` on floats below
is deliberate.
"""

import json

import numpy as np
import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import ExactSum, sequential_sum


class TestExactSum:
    def test_order_independent_where_float_sum_is_not(self):
        # Classic cancellation case: naive left-to-right float sums
        # disagree across orders; the exact accumulator does not.
        values = [1e16, 1.0, -1e16, 1.0] * 50
        forward = ExactSum()
        forward.add_many(values)
        backward = ExactSum()
        backward.add_many(values[::-1])
        assert forward.value == backward.value == 100.0

    def test_canonical_is_grouping_independent(self):
        # internal partials may differ by insertion grouping; the
        # exported (canonical) expansion must not
        rng = np.random.default_rng(6)
        values = rng.uniform(-1e12, 1e-12, size=300).tolist()
        bulk = ExactSum()
        bulk.add_many(values)
        merged = ExactSum()
        for lo in range(0, 300, 37):
            part = ExactSum()
            part.add_many(values[lo:lo + 37])
            merged.merge(part)
        assert merged.canonical() == bulk.canonical()
        assert ExactSum(bulk.canonical()).value == bulk.value

    def test_merge_matches_bulk(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1e9, 1e9, size=200).tolist()
        bulk = ExactSum()
        bulk.add_many(values)
        a, b = ExactSum(), ExactSum()
        a.add_many(values[:77])
        b.add_many(values[77:])
        a.merge(b)
        assert a.value == bulk.value

    def test_sequential_sum_matches_python_sum_exactly(self):
        # the order-dependent counterpart: the reference loop's own
        # left-to-right additions, not the exact sum
        rng = np.random.default_rng(7)
        values = list(rng.uniform(0, 1, size=1000))
        assert sequential_sum(values) == sum(values)
        assert sequential_sum(np.asarray(values)) == sum(values)
        assert sequential_sum([]) == 0.0
        cancel = [1e16, 1.0, -1e16, 1.0] * 50
        assert sequential_sum(cancel) == sum(cancel)


class TestCounterGauge:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        other = Counter(10)
        c.merge(other)
        assert c.value == 15

    def test_gauge_last(self):
        g = Gauge()
        g.set(1.0)
        g.set(2.0)
        assert g.value == 2.0
        other = Gauge()
        other.set(7.0)
        g.merge(other)
        assert g.value == 7.0
        g.merge(Gauge())  # never set: keeps current value
        assert g.value == 7.0

    def test_gauge_max(self):
        g = Gauge(kind="max")
        g.set(3.0)
        g.set(-5.0)
        assert g.value == 3.0
        other = Gauge(kind="max")
        other.set(9.0)
        g.merge(other)
        assert g.value == 9.0

    def test_gauge_kind_validated(self):
        with pytest.raises(ValueError):
            Gauge(kind="median")


def _sample_sets(rng, n_sets=40):
    """Latency-like value sets spanning under/in/overflow regimes."""
    for _ in range(n_sets):
        n = int(rng.integers(1, 400))
        decade = rng.choice([1e-8, 1e-3, 1.0, 1e2, 1e4])
        yield rng.uniform(0, decade, size=n)


class TestHistogram:
    def test_scalar_and_vector_recording_agree(self):
        rng = np.random.default_rng(1)
        for values in _sample_sets(rng):
            scalar = Histogram()
            for v in values:
                scalar.record(v)
            vector = Histogram()
            vector.record_array(values)
            assert scalar.state() == vector.state()

    def test_merge_commutative_and_associative(self):
        # The ISSUE's property: randomized partitions of randomized
        # samples, merged in randomized groupings, all reproduce the
        # single-histogram state exactly.
        rng = np.random.default_rng(2)
        for values in _sample_sets(rng, n_sets=25):
            whole = Histogram()
            whole.record_array(values)
            n_parts = int(rng.integers(2, 6))
            assignment = rng.integers(0, n_parts, size=values.size)
            parts = []
            for p in range(n_parts):
                h = Histogram()
                h.record_array(values[assignment == p])
                parts.append(h)
            # left fold in a random order
            order = rng.permutation(n_parts)
            left = Histogram()
            for p in order:
                left.merge(parts[p])
            # tree fold (different association)
            tree = [Histogram() for _ in range(n_parts)]
            for t, p in zip(tree, parts):
                t.merge(p)
            while len(tree) > 1:
                a = tree.pop(0)
                b = tree.pop()
                a.merge(b)
                tree.append(a)
            assert left.state() == whole.state()
            assert tree[0].state() == whole.state()

    def test_layout_mismatch_rejected(self):
        a = Histogram()
        b = Histogram(per_decade=10)
        with pytest.raises(ValueError, match="layout"):
            a.merge(b)

    def test_quantile_exact_at_extremes(self):
        h = Histogram()
        values = [0.013, 7.5, 0.4, 120.0, 0.0009]
        for v in values:
            h.record(v)
        assert h.quantile(0) == min(values)
        assert h.quantile(100) == max(values)
        assert h.min == min(values)
        assert h.max == max(values)

    def test_quantile_within_bucket_width(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(mean=0.0, sigma=1.5, size=5000)
        h = Histogram()
        h.record_array(values)
        rel_width = 10 ** (1 / h.per_decade) - 1
        for q in (50, 95, 99, 99.9):
            true = float(np.percentile(values, q))
            est = h.quantile(q)
            assert est == pytest.approx(true, rel=2 * rel_width)

    def test_under_and_overflow(self):
        h = Histogram(lo=1e-3, hi=1e3, per_decade=10)
        h.record(0.0)        # underflow (exact zero)
        h.record(1e-9)       # underflow
        h.record(1e6)        # overflow
        h.record(1.0)        # in range
        assert h.count == 4
        assert int(h.counts[0]) == 2
        assert int(h.counts[-1]) == 1
        assert h.min == 0.0
        assert h.max == 1e6

    def test_empty(self):
        h = Histogram()
        assert (h.count, h.min, h.max, h.sum, h.mean) == (0, 0, 0, 0, 0)
        assert h.quantile(50) == 0.0

    def test_dict_roundtrip_preserves_state(self):
        rng = np.random.default_rng(4)
        h = Histogram()
        h.record_array(rng.lognormal(size=300))
        data = json.loads(json.dumps(h.to_dict()))
        back = Histogram.from_dict(data)
        assert back.state() == h.state()

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram(lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram(per_decade=0)
        with pytest.raises(ValueError):
            Histogram().quantile(101)


class TestMetricsRegistry:
    def _populate(self, reg, values):
        reg.counter("requests.total").inc(len(values))
        reg.gauge("depth.max", kind="max").set(3.0)
        reg.histogram("latency.response_ms").record_array(
            np.asarray(values))

    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_export_merge_roundtrip(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(size=120)
        one = MetricsRegistry()
        self._populate(one, values)

        halves = MetricsRegistry(), MetricsRegistry()
        self._populate(halves[0], values[:50])
        self._populate(halves[1], values[50:])
        merged = MetricsRegistry()
        for half in halves:
            merged.merge_dict(json.loads(json.dumps(half.to_dict())))
        assert json.dumps(merged.to_dict(), sort_keys=True) \
            == json.dumps(one.to_dict(), sort_keys=True)
