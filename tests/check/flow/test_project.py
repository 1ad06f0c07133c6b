"""Call-graph resolution on fixture trees: methods, re-exports, partial."""

import textwrap

from tests.check.flow._fixtures import model_of


def src(text):
    return textwrap.dedent(text).lstrip()


def edge_set(model):
    return {(e.caller, e.callee) for e in model.call_edges()}


def test_direct_and_method_calls_resolve():
    model = model_of({"app.m": src("""
        class Engine:
            def step(self):
                return self.tick()

            def tick(self):
                return 1

        def run():
            e = Engine()
            return e.step()
    """)})
    edges = edge_set(model)
    assert ("app.m:Engine.step", "app.m:Engine.tick") in edges
    # constructor resolves to the class node (no __init__ defined)
    assert ("app.m:run", "app.m:Engine") in edges
    # method call on a constructor-typed local
    assert ("app.m:run", "app.m:Engine.step") in edges


def test_constructor_resolves_to_init_when_defined():
    model = model_of({"app.m": src("""
        class Engine:
            def __init__(self, n):
                self.n = n

        def run():
            return Engine(3)
    """)})
    assert ("app.m:run", "app.m:Engine.__init__") in edge_set(model)


def test_self_attribute_method_calls_resolve():
    model = model_of({"app.m": src("""
        class Sampler:
            def draw(self):
                return 1

        class Holder:
            def __init__(self):
                self.sampler = Sampler()

            def use(self):
                return self.sampler.draw()
    """)})
    assert ("app.m:Holder.use", "app.m:Sampler.draw") in edge_set(model)


def test_reexport_chain_resolves_through_package_init():
    model = model_of({
        "app": "",
        "app.impl": src("""
            def work():
                return 1
        """),
        "app.api": "from app.impl import work\n",
        "app.user": src("""
            from app.api import work

            def go():
                return work()
        """),
    }, packages={"app"})
    assert ("app.user:go", "app.impl:work") in edge_set(model)


def test_module_alias_attribute_call_resolves():
    model = model_of({
        "app": "",
        "app.impl": "def work():\n    return 1\n",
        "app.user": src("""
            from app import impl

            def go():
                return impl.work()
        """),
    }, packages={"app"})
    assert ("app.user:go", "app.impl:work") in edge_set(model)


def test_plain_dotted_import_binds_the_top_package():
    model = model_of({
        "app": "",
        "app.impl": "def work():\n    return 1\n",
        "app.user": src("""
            import app.impl

            def go():
                return app.impl.work()
        """),
    }, packages={"app"})
    assert model._binding_of("app.user", "app") == ("module", "app")
    assert ("app.user:go", "app.impl:work") in edge_set(model)


def test_functools_partial_contributes_reference_edge():
    model = model_of({"app.m": src("""
        from functools import partial

        def work(x, y):
            return x + y

        def bind():
            return partial(work, 1)
    """)})
    assert ("app.m:bind", "app.m:work") in edge_set(model)


def test_function_passed_as_argument_contributes_edge():
    model = model_of({"app.m": src("""
        def payload():
            return 1

        def submit(fn):
            return fn()

        def driver():
            return submit(payload)
    """)})
    edges = edge_set(model)
    assert ("app.m:driver", "app.m:submit") in edges
    assert ("app.m:driver", "app.m:payload") in edges


def test_base_class_method_resolution():
    model = model_of({"app.m": src("""
        class Base:
            def shared(self):
                return 1

        class Child(Base):
            def use(self):
                return self.shared()
    """)})
    assert ("app.m:Child.use", "app.m:Base.shared") in edge_set(model)


def test_unresolvable_callees_produce_no_edges():
    model = model_of({"app.m": src("""
        import os

        def go(blob):
            os.getpid()
            blob.mystery()
            return len(blob)
    """)})
    assert not [e for e in model.call_edges()
                if e.caller == "app.m:go"]


def test_expand_roots_patterns():
    model = model_of({"app.m": src("""
        class Report:
            def render(self):
                return 1

        def writer():
            return 2

        def other():
            return 3
    """)})
    assert model.expand_roots(["app.m:writer"]) == ["app.m:writer"]
    assert model.expand_roots(["app.m:Report"]) == [
        "app.m:Report", "app.m:Report.render"]
    star = model.expand_roots(["app.m:*"])
    assert "app.m:writer" in star and "app.m:other" in star
    assert model.expand_roots(["nope:*", "app.m:missing"]) == []


def test_callable_params_strip_self_and_use_dataclass_fields():
    model = model_of({"app.m": src("""
        from dataclasses import dataclass

        @dataclass
        class Cell:
            experiment: str
            name: str
            fn: object

        class Runner:
            def run(self, jobs, excluded=None):
                return jobs
    """)})
    assert model.callable_params("app.m:Cell") == (
        "experiment", "name", "fn")
    assert model.callable_params("app.m:Runner.run") == (
        "jobs", "excluded")


def test_call_edge_order_is_deterministic():
    sources = {"app.m": src("""
        def a():
            b(); c(); b()

        def b():
            c()

        def c():
            return 1
    """)}
    first = [(e.caller, e.callee, e.site.line)
             for e in model_of(sources).call_edges()]
    second = [(e.caller, e.callee, e.site.line)
              for e in model_of(sources).call_edges()]
    assert first == second
    assert first == sorted(first, key=lambda t: (t[0], t[2]))
