"""Faulted fast playback ≡ DES where driver failover is the common case.

:class:`repro.flash.faulted.FaultedReplay` serves the module queues in
rounds and merges each failover re-submission into its target queue,
re-serving only the suffix a target already ran past.  The other
faulted suites draw sparse traces, where a failover is rare; these
properties pack 200 or more requests into a few milliseconds and aim
crashes, down windows and ``prob=1.0`` read-error windows at the
queues, so most examples fail over, many of them in chains and onto
rows a target already served.  Every ``PlayedTable`` column and every
``faults.*`` obs counter must equal the DES's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.flash.driver import OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS
from tests.properties.test_property_played_table import assert_same_columns
from tests.support.builders import design_alloc

ALLOC = design_alloc()


@st.composite
def dense_cases(draw, retries=st.sampled_from([1, 3])):
    """A dense mixed trace and a schedule that fails reads over.

    The first faulted module always gets a read-error window, so every
    example has reads that exhaust their retries; ``retries`` draws
    ``max_retries``, and only ``max_retries >= 1`` can fail over.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(200, 320))
    span = draw(st.floats(1.0, 5.0))
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, span, n)).tolist()
    buckets = rng.integers(0, ALLOC.n_buckets, n).tolist()
    reads = (rng.random(n) >= draw(st.sampled_from([0.0, 0.1, 0.3]))).tolist()
    accesses = draw(st.sampled_from([4, 1]))
    # admission spreads the trace out; aim the faults at the healthy
    # play's service horizon, where the queues are
    horizon = float(_player(accesses).play(
        arrivals, buckets, reads=reads)[1].completed.max())
    events = []
    modules = rng.choice(9, draw(st.integers(2, 5)), replace=False)
    for i, m in enumerate(modules.tolist()):
        kind = "read_error" if i == 0 else draw(st.sampled_from(
            ["read_error", "crash", "down", "slow"]))
        start = draw(st.floats(0.0, 0.8)) * horizon
        end = start + draw(st.floats(0.1, 0.5)) * horizon
        if kind == "crash":
            events.append(FaultEvent("crash", m, start))
        elif kind == "read_error":
            events.append(FaultEvent("read_error", m, start, end, prob=1.0))
        elif kind == "slow":
            events.append(FaultEvent("slow", m, start, end, factor=3.0))
        else:
            events.append(FaultEvent("down", m, start, end))
    retry = RetryPolicy(max_retries=draw(retries),
                        backoff_ms=draw(st.sampled_from([0.0, 0.02, 0.05])),
                        growth=draw(st.sampled_from([1.0, 2.0])))
    schedule = FaultSchedule(events, n_modules=9, seed=seed % 97,
                             retry=retry)
    return accesses, arrivals, buckets, reads, schedule


def _player(accesses, engine="fast", faults=None):
    return OnlineTracePlayer(ALLOC, interval_ms=0.4, accesses=accesses,
                             params=MSR_SSD_PARAMS, engine=engine,
                             faults=faults)


def _play(engine, accesses, arrivals, buckets, reads, schedule):
    player = _player(accesses, engine, schedule)
    with obs.observed() as session:
        played = player.play(arrivals, buckets, reads=reads)[1]
    counters = session.registry.to_dict()["counters"]
    return played, {k: v for k, v in counters.items()
                    if k.startswith("faults.")}


@settings(max_examples=30, deadline=None)
@given(case=dense_cases())
def test_dense_failover_matches_des(case):
    fast, fast_faults = _play("fast", *case)
    des, des_faults = _play("des", *case)
    assert_same_columns(fast, des)
    assert fast_faults == des_faults


@settings(max_examples=10, deadline=None)
@given(case=dense_cases(retries=st.just(0)))
def test_dense_no_retry_matches_des(case):
    """``max_retries=0``: a failed read is unavailable at once."""
    fast, fast_faults = _play("fast", *case)
    des, des_faults = _play("des", *case)
    assert_same_columns(fast, des)
    assert fast_faults == des_faults
    assert "faults.failover" not in fast_faults


def test_dense_cases_fail_over():
    """The strategy's examples do fail over, often more than once."""
    failovers = []

    @settings(max_examples=10, deadline=None, database=None)
    @given(case=dense_cases())
    def count(case):
        failovers.append(_play("fast", *case)[1].get("faults.failover", 0))

    count()
    assert sum(f > 0 for f in failovers) >= 5, failovers
    assert max(failovers) >= 5, failovers
