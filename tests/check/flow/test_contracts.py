"""Contract-flow pass: excluded=/faults=/masked_at must be forwarded."""

import textwrap
from pathlib import Path

from repro.check.flow import (
    ContractFlowPass,
    FlowConfig,
    ProjectModel,
    summarize_source,
)
from tests.check.flow._fixtures import model_of

SRC = Path(__file__).resolve().parents[3] / "src"


def src(text):
    return textwrap.dedent(text).lstrip()


def run(source):
    return ContractFlowPass().run(model_of({"app.m": src(source)}),
                                  FlowConfig())


def test_dropped_contract_is_flagged():
    (f,) = run("""
        def leaf(x, excluded=None):
            return x

        def mid(x, excluded=None):
            return leaf(x)
    """)
    assert f.pass_id == "contract-flow"
    assert f.symbol == "mid"
    assert "'excluded'" in f.message
    assert "leaf" in f.message


def test_keyword_forwarding_is_covered():
    assert run("""
        def leaf(x, excluded=None):
            return x

        def mid(x, excluded=None):
            return leaf(x, excluded=excluded)
    """) == []


def test_transformed_keyword_still_counts():
    # narrowing/transforming the contract is a deliberate decision
    assert run("""
        def leaf(x, excluded=None):
            return x

        def mid(x, excluded=None):
            return leaf(x, excluded=excluded | {0})
    """) == []


def test_positional_forwarding_is_covered():
    assert run("""
        def leaf(x, excluded):
            return x

        def mid(x, excluded=None):
            return leaf(x, excluded)
    """) == []


def test_kwargs_splat_is_assumed_to_carry():
    assert run("""
        def leaf(x, excluded=None):
            return x

        def mid(x, excluded=None, **kw):
            return leaf(x, **kw)
    """) == []


def test_callee_without_the_param_is_fine():
    assert run("""
        def leaf(x):
            return x

        def mid(x, excluded=None):
            return leaf(x)
    """) == []


def test_method_and_constructor_contracts_are_checked():
    findings = run("""
        class Scheduler:
            def __init__(self, plan, faults=None):
                self.plan = plan

            def place(self, item, faults=None):
                return item

        def drive(plan, faults=None):
            s = Scheduler(plan)
            return s.place(1)
    """)
    dropped = {f.message.split(" drops ")[0] for f in findings}
    assert dropped == {"call to Scheduler.__init__",
                       "call to Scheduler.place"}


def test_every_contract_param_is_audited():
    findings = run("""
        def leaf(x, excluded=None, faults=None, masked_at=0):
            return x

        def mid(x, excluded=None, faults=None, masked_at=0):
            return leaf(x)
    """)
    assert len(findings) == 3


def real_model(*modules):
    """Summarize the *actual* source of project modules."""
    summaries = []
    for mod in modules:
        path = SRC / (mod.replace(".", "/") + ".py")
        summaries.append(summarize_source(
            path.read_text(), module=mod, path=str(path)))
    return ProjectModel(summaries)


class TestLiveControllerIsCovered:
    """The re-replication planner (:mod:`repro.controller.planner`) is
    the newest carrier of the ``excluded`` contract; make sure the
    pass *sees* its surface (not a vacuous green) and finds it clean.
    """

    CONTROLLER_MODULES = ("repro.controller.planner",
                          "repro.controller.controller",
                          "repro.controller.strategy",
                          "repro.controller.boundary")

    def test_planner_contract_surface_is_visible(self):
        model = real_model("repro.controller.planner")
        prefix = "repro.controller.planner:ReplicationPlanner"
        plan = model.callable_params(f"{prefix}.plan")
        assert plan is not None and "excluded" in plan
        # the fault-mask helpers plan() must forward the contract to
        for helper in ("_touches_dead", "_live_devices",
                       "_healthiest"):
            params = model.callable_params(f"{prefix}.{helper}")
            assert params is not None and "excluded" in params
        # and the pass can resolve plan()'s calls onto them
        callees = {e.callee for e in model.call_edges()
                   if e.caller == f"{prefix}.plan"}
        assert f"{prefix}._touches_dead" in callees

    def test_controller_package_is_contract_clean(self):
        model = real_model(*self.CONTROLLER_MODULES)
        assert ContractFlowPass().run(model, FlowConfig()) == []


def test_pragma_documents_a_deliberate_consume():
    assert run("""
        def leaf(x, excluded=None):
            return x

        def mid(x, excluded=None):
            # contract consumed: x is already masked
            # repro: allow[contract-flow]
            return leaf(x)
    """) == []
