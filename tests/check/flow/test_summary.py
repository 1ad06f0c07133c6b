"""Per-file extraction: call sites, source facts, seed provenance."""

import textwrap

from tests.check.flow._fixtures import summarize


def src(text):
    return textwrap.dedent(text).lstrip()


def fn_named(summary, qualname):
    for fn in summary.functions:
        if fn.qualname == qualname:
            return fn
    raise AssertionError(f"{qualname} not extracted: "
                         f"{[f.qualname for f in summary.functions]}")


def test_call_sites_record_args_and_keywords():
    s = summarize("app.m", src("""
        def f(x):
            g(x, 1, fn=h, mode="fast")
    """))
    fn = fn_named(s, "f")
    (site,) = fn.calls
    assert site.callee == ("g",)
    assert site.n_pos == 2
    assert site.pos_dotted[0] == ("x",)
    assert site.keywords == (("fn", ("h",)), ("mode", None))
    assert not site.has_star_kwargs


def test_wall_clock_and_hash_sources_extracted():
    s = summarize("app.m", src("""
        import time

        def f():
            a = time.time()
            b = time.monotonic()
            c = hash((a, b))
            return id(c)
    """))
    kinds = sorted((x.kind, x.line) for x in fn_named(s, "f").sources)
    assert ("wall-clock", 4) in kinds
    assert ("wall-clock", 5) in kinds
    assert ("builtin-hash", 6) in kinds
    assert ("builtin-hash", 7) in kinds


def test_nested_defs_fold_into_enclosing_function():
    s = summarize("app.m", src("""
        import time

        def outer():
            def inner():
                return time.time()
            return inner
    """))
    fn = fn_named(s, "outer")
    assert "inner" in fn.local_defs
    assert any(x.kind == "wall-clock" for x in fn.sources)


def test_module_level_facts_land_on_module_body():
    s = summarize("app.m", "import time\nT0 = time.time()\n")
    fn = fn_named(s, "<module>")
    assert any(x.kind == "wall-clock" for x in fn.sources)


def test_seed_provenance_classification():
    s = summarize("app.m", src("""
        import numpy as np

        DEFAULT = 7

        def from_param(seed):
            return np.random.default_rng(seed)

        def from_derived(seed):
            mixed = seed * 3
            return np.random.default_rng(mixed)

        def from_literal():
            return np.random.default_rng(42)

        def from_module_const():
            return np.random.default_rng(DEFAULT)

        def from_nothing():
            return np.random.default_rng()

        def from_self_attr(self):
            return np.random.default_rng(self.seed)
    """))
    origins = {f.qualname: f.rngs[0].seed_from
               for f in s.functions if f.rngs}
    assert origins == {
        "from_param": "param",
        "from_derived": "param",
        "from_literal": "constant",
        "from_module_const": "module-const",
        "from_nothing": "missing",
        "from_self_attr": "param",
    }


def test_local_and_attr_types_recorded():
    s = summarize("app.m", src("""
        from app.lib import Sampler

        class Holder:
            def __init__(self):
                self.sampler = Sampler(3)

        def use():
            s = Sampler(5)
            return s.draw()
    """))
    fn = fn_named(s, "use")
    assert fn.local_type_map() == {"s": ("Sampler",)}
    (cls,) = s.classes
    assert cls.attr_type_map() == {"sampler": ("Sampler",)}


def test_pragma_lines_collected_and_checked():
    s = summarize("app.m", src("""
        import time

        def f():
            # repro: allow[flow-taint]
            a = time.time()
            b = time.time()  # repro: allow[wall-clock]
            return a + b
    """))
    assert s.is_allowed(("flow-taint",), 5)       # line-above pragma
    assert s.is_allowed(("wall-clock",), 6)       # same-line pragma
    assert not s.is_allowed(("flow-taint",), 6)


def test_plain_dotted_import_records_the_submodule():
    """``import a.b.c`` imports ``a.b.c`` and binds only ``a``."""
    s = summarize("app.m", src("""
        import repro.traces.streaming
        import os.path as osp
        import json
    """))
    assert [(b.local, b.module, b.symbol) for b in s.imports] == [
        ("repro.traces.streaming", "repro.traces.streaming", None),
        ("repro", "repro", None),
        ("osp", "os.path", None),
        ("json", "json", None),
    ]
