"""Factory helpers for test fixtures.

Each builder fixes the paper's canonical configuration (9 devices,
3 copies, T = 0.133 ms intervals, MSR SSD service times) and takes
keyword overrides for the dimension a test actually varies, so tests
state only what they are about instead of repeating the setup.
"""

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.core import QoSFlashArray
from repro.faults import FaultSchedule
from repro.flash.driver import OnlineTracePlayer
from repro.flash.params import MSR_SSD_PARAMS

__all__ = [
    "READ_MS", "design_alloc", "paper_array", "trace_pair",
    "crash_schedule", "online_player", "reference_session",
    "reference_play",
]

#: single-read service time of the canonical device model
READ_MS = MSR_SSD_PARAMS.read_ms


def design_alloc(n_devices=9, replication=3):
    """The paper's design-theoretic allocation (9 devices, c = 3)."""
    return DesignTheoreticAllocation.from_parameters(
        n_devices, replication)


def paper_array(**overrides):
    """A QoSFlashArray at the paper defaults, keyword-overridable."""
    config = dict(n_devices=9, replication=3, interval_ms=0.133)
    config.update(overrides)
    return QoSFlashArray(**config)


def trace_pair(per_interval=5, interval_ms=0.133, n=500, seed=0):
    """``(arrival_ms, block)`` from a synthetic uniform trace."""
    from repro.traces.synthetic import synthetic_trace

    trace = synthetic_trace(per_interval, interval_ms,
                            total_requests=n, seed=seed)
    return trace.arrival_ms, trace.block


def crash_schedule(*modules, at=0.0):
    """A FaultSchedule crashing ``modules`` at time ``at``."""
    return FaultSchedule.crashes(modules, at=at)


def online_player(alloc=None, faults=None, **overrides):
    """An OnlineTracePlayer over ``alloc`` with MSR service times."""
    if alloc is None:
        alloc = design_alloc()
    config = dict(interval_ms=0.133, accesses=1,
                  params=MSR_SSD_PARAMS, faults=faults)
    config.update(overrides)
    return OnlineTracePlayer(alloc, **config)


def reference_session(player):
    """A session of ``player`` on the scalar reference admission loop.

    A fresh session demoted before its first feed: the same exact
    hand-over a mid-stream demotion makes, with nothing pending.
    Sessions that never engage the kernel are scalar already.
    """
    session = player.session()
    if session.admission_kernel == "vector":
        session._demote("reference")
    return session


def reference_play(player, arrivals, buckets, reads=None):
    """``player.play`` on the scalar reference admission loop."""
    session = reference_session(player)
    session.feed(arrivals, buckets, reads=reads)
    return session.drain()
