"""Taint pass: sink-reachable entropy, trace paths, suppression."""

import textwrap

from repro.check.flow import FlowConfig, TaintPass
from tests.check.flow._fixtures import model_of


def src(text):
    return textwrap.dedent(text).lstrip()


def run(sources, sinks):
    model = model_of(sources)
    cfg = FlowConfig(sink_roots=tuple(sinks))
    return TaintPass().run(model, cfg)


def test_source_reached_through_call_chain_is_reported():
    findings = run({"app.m": src("""
        import time

        def leaf():
            return time.time()

        def mid():
            return leaf()

        def report():
            return mid()
    """)}, ["app.m:report"])
    (f,) = findings
    assert f.pass_id == "flow-taint"
    assert f.symbol == "leaf"
    assert "time.time()" in f.message
    assert "report" in f.message
    chain = [s.symbol for s in f.trace]
    assert chain == ["report", "mid", "leaf"]
    assert f.trace[0].note == "sink root"


def test_unreachable_source_is_silent():
    findings = run({"app.m": src("""
        import time

        def unrelated():
            return time.time()

        def report():
            return 1
    """)}, ["app.m:report"])
    assert findings == []


def test_feeder_widening_catches_values_computed_for_the_sink():
    findings = run({"app.m": src("""
        import time

        def sink(x):
            return x

        def feeder():
            t = time.time()
            return sink(t)
    """)}, ["app.m:sink"])
    (f,) = findings
    assert f.symbol == "feeder"
    assert f.trace[0].note == "feeds sink sink"


def test_pragma_on_source_line_suppresses():
    findings = run({"app.m": src("""
        import time

        def leaf():
            return time.time()  # repro: allow[flow-taint]

        def report():
            return leaf()
    """)}, ["app.m:report"])
    assert findings == []


def test_lint_kind_pragma_also_suppresses():
    findings = run({"app.m": src("""
        import time

        def leaf():
            return time.time()  # repro: allow[wall-clock]

        def report():
            return leaf()
    """)}, ["app.m:report"])
    assert findings == []


def test_all_source_kinds_are_caught():
    findings = run({"app.m": src("""
        import numpy as np

        def report(items):
            rng = np.random.default_rng()
            for item in {1, 2, 3}:
                rng = rng
            return hash(items)
    """)}, ["app.m:report"])
    kinds = sorted({f.message.split(";")[0] for f in findings})
    assert len(findings) == 3
    assert any("default_rng() without a seed" in k for k in kinds)
    assert any("unordered set" in k for k in kinds)
    assert any("hash()" in k for k in kinds)


def test_findings_and_paths_are_deterministic():
    sources = {"app.m": src("""
        import time

        def leaf():
            return time.time()

        def a():
            return leaf()

        def b():
            return leaf()

        def report():
            return a() + b()
    """)}
    first = run(dict(sources), ["app.m:report"])
    second = run(dict(sources), ["app.m:report"])
    assert [f.to_dict() for f in first] == [f.to_dict()
                                           for f in second]
    # BFS over sorted adjacency: the shortest path goes through the
    # first-defined intermediate, every run
    (f,) = first
    assert [s.symbol for s in f.trace] == ["report", "a", "leaf"]


def test_set_order_comprehension_and_list_reach_the_qos_report():
    findings = TaintPass().run(model_of({
        "repro.core.qos": src("""
            from repro.core.stats import order_a, order_b

            class QoSReport:
                def devices(self, a):
                    return order_a(a) + order_b(a)
        """),
        "repro.core.stats": src("""
            def order_a(a):
                return [x for x in set(a)]

            def order_b(a):
                return list(set(a))
        """),
    }), FlowConfig())
    hits = {(f.symbol, f.line) for f in findings}
    assert hits == {("order_a", 2), ("order_b", 5)}
    for f in findings:
        assert "set" in f.message
        assert "QoSReport.devices" in f.message
        assert [s.symbol for s in f.trace][0] == "QoSReport.devices"
