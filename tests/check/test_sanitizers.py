"""Sanitizer trip tests: corrupt an invariant, expect SanitizerError."""

import pytest

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.check import sanitizers
from repro.check.sanitizers import SanitizerError
from repro.designs.block_design import BlockDesign
from repro.designs.catalog import get_design
from repro.graph.dinic import max_flow
from repro.graph.flownet import FlowNetwork
from repro.retrieval.maxflow import maxflow_retrieval
from repro.sim import Environment


@pytest.fixture(autouse=True)
def _sanitizers_off_after():
    yield
    sanitizers.disable()


def test_disabled_by_default():
    assert sanitizers.ACTIVE is False


def test_enable_disable_and_context():
    sanitizers.enable()
    assert sanitizers.ACTIVE
    sanitizers.disable()
    assert not sanitizers.ACTIVE
    with sanitizers.sanitized():
        assert sanitizers.ACTIVE
    assert not sanitizers.ACTIVE


# -- flow conservation ---------------------------------------------------

def _diamond():
    net = FlowNetwork(4)
    e1 = net.add_edge(0, 1, 2)
    e2 = net.add_edge(0, 2, 1)
    e3 = net.add_edge(1, 3, 2)
    e4 = net.add_edge(2, 3, 2)
    return net, (e1, e2, e3, e4)


def test_clean_network_passes_under_sanitizers():
    net, _ = _diamond()
    with sanitizers.sanitized():
        assert max_flow(net, 0, 3) == 3
    sanitizers.check_flow_conservation(net, 0, 3)


def test_corrupted_flow_trips_conservation():
    net, edges = _diamond()
    max_flow(net, 0, 3)
    # forge flow out of thin air on the 1->3 edge's reverse slot:
    # node 1 now emits more than it receives
    net._cap[edges[2] ^ 1] += 1
    with pytest.raises(SanitizerError, match="conservation"):
        sanitizers.check_flow_conservation(net, 0, 3)


def test_negative_residual_trips():
    net, edges = _diamond()
    max_flow(net, 0, 3)
    net._cap[edges[0]] = -1
    with pytest.raises(SanitizerError, match="negative residual"):
        sanitizers.check_flow_conservation(net, 0, 3)


def test_dinic_checks_inline_when_active():
    # a clean solve under sanitizers must not raise
    net, _ = _diamond()
    with sanitizers.sanitized():
        assert max_flow(net, 0, 3) == 3


# -- schedules -----------------------------------------------------------

def test_schedule_off_replica_trips():
    with pytest.raises(SanitizerError, match="not one of its replicas"):
        sanitizers.check_schedule([(0, 1), (1, 2)], [0, 0], 1)


def test_schedule_over_capacity_trips():
    with pytest.raises(SanitizerError, match="capacity"):
        sanitizers.check_schedule([(0, 1), (0, 2)], [0, 0], 1)


def test_schedule_per_device_capacities():
    sanitizers.check_schedule([(0,), (1,)], [0, 1], [1, 1])
    with pytest.raises(SanitizerError, match="capacity"):
        sanitizers.check_schedule([(0,), (0,)], [0, 0], [1, 9])


def test_maxflow_retrieval_clean_under_sanitizers():
    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    cands = [alloc.devices_for(b) for b in range(5)]
    with sanitizers.sanitized():
        schedule = maxflow_retrieval(cands, 9)
    assert schedule.accesses >= 1


def test_combined_retrieval_checks_a_first_seen_dtr_schedule(
        monkeypatch):
    from repro.retrieval import policy
    from repro.retrieval.schedule import RetrievalSchedule

    # a forged optimal DTR answer that puts request 0 off its replicas
    monkeypatch.setattr(policy, "design_theoretic_retrieval",
                        lambda cands, n: RetrievalSchedule((8,), n))
    with sanitizers.sanitized():
        with pytest.raises(SanitizerError, match="not one of its"):
            policy.combined_retrieval([(0, 1, 2)], 9)


# -- event ordering ------------------------------------------------------

def test_event_order_monotonic_passes():
    sanitizers.check_event_order(None, (0.0, 0))
    sanitizers.check_event_order((0.0, 0), (0.0, 1))
    sanitizers.check_event_order((0.0, 1), (2.5, 0))


def test_event_order_regression_trips():
    with pytest.raises(SanitizerError, match="out of order"):
        sanitizers.check_event_order((5.0, 2), (4.0, 7))


def test_injected_out_of_order_event_trips_kernel():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    with sanitizers.sanitized():
        env.step()  # process start event at t=0
        env.step()  # first timeout, t=1
        # inject an event violating the heap's (time, seq) contract
        ev = env.event()
        ev._ok = True
        env._queue.insert(0, (0.5, -1, ev))
        with pytest.raises(SanitizerError, match="out of order"):
            env.step()


def test_normal_run_clean_under_sanitizers():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    with sanitizers.sanitized():
        env.run()
    assert env.now == 3.0


# -- FCFS ----------------------------------------------------------------

def test_fcfs_monotonic_passes():
    sanitizers.check_fcfs_order(0, None, 1.0)
    sanitizers.check_fcfs_order(0, 1.0, 1.0)
    sanitizers.check_fcfs_order(0, 1.0, 2.0)


def test_fcfs_regression_trips():
    with pytest.raises(SanitizerError, match="FCFS"):
        sanitizers.check_fcfs_order(3, 2.0, 1.0)


def test_corrupted_store_order_trips_module():
    from repro.flash.array import IORequest
    from repro.flash.module import FlashModule

    env = Environment()
    module = FlashModule(env, 0)
    first = IORequest(arrival=0.0, bucket=0)
    second = IORequest(arrival=0.0, bucket=1)
    for req in (first, second):
        req.done = env.event()
        module.submit(req)
    # corrupt the FIFO: move the later request to the front and give
    # it a later enqueue stamp, so service order regresses
    module.queue.items.rotate(1)
    second.enqueued_at = 10.0
    first.enqueued_at = 0.0
    with sanitizers.sanitized():
        with pytest.raises(SanitizerError, match="FCFS"):
            env.run()


def test_module_serves_cleanly_under_sanitizers():
    from repro.flash.array import IORequest
    from repro.flash.module import FlashModule

    env = Environment()
    module = FlashModule(env, 0)
    for bucket in range(3):
        req = IORequest(arrival=0.0, bucket=bucket)
        req.done = env.event()
        module.submit(req)
    with sanitizers.sanitized():
        env.run()
    assert module.n_served == 3


# -- allocations ---------------------------------------------------------

def test_valid_allocation_passes():
    alloc = DesignTheoreticAllocation.from_parameters(9, 3)
    sanitizers.check_allocation(alloc)


def test_construction_checks_when_active():
    with sanitizers.sanitized():
        DesignTheoreticAllocation.from_parameters(9, 3)


def test_pairwise_balance_violation_trips():
    # two blocks sharing the pair (0, 1) break the design guarantee
    bad = BlockDesign(n_points=4, blocks=((0, 1, 2), (0, 1, 3)))

    class BadAllocation(DesignTheoreticAllocation):
        def __init__(self):  # bypass the parent's sanitized __init__
            self.design = bad
            self._expanded = bad
            self.n_devices = 4
            self.replication = 3
            self.n_buckets = 2

    with pytest.raises(SanitizerError, match="pairwise balance"):
        sanitizers.check_allocation(BadAllocation())


def test_structural_violation_trips():
    design = get_design(9, 3)

    class Broken(DesignTheoreticAllocation):
        def devices_for(self, bucket):
            return (0, 0, 0)  # duplicate devices

    alloc = Broken(design)
    with pytest.raises(SanitizerError, match="structurally invalid"):
        sanitizers.check_allocation(alloc)
