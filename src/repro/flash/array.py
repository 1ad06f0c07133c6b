"""The flash array: N modules behind a dispatching controller."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.flash.metrics import ResponseStats
from repro.flash.module import FlashModule
from repro.flash.params import FlashParams
from repro.sim import Environment, Event

__all__ = ["IORequest", "FlashArray"]


@dataclass
class IORequest:
    """One block-level I/O request travelling through the array.

    Attributes
    ----------
    issued_at:
        When the I/O driver sent the request (response time reference
        point; see paper §V-C1).
    arrival:
        Original application arrival time; ``issued_at - arrival`` is
        the admission/alignment delay.
    bucket:
        Data bucket (block) identifier.
    """

    arrival: float
    bucket: int
    is_read: bool = True
    issued_at: float = 0.0
    #: scheduling priority: lower is served first on priority-queue
    #: modules (0 = foreground, higher = background)
    priority: int = 0
    device: int = -1
    enqueued_at: float = 0.0
    started_at: float = 0.0
    completed_at: float = 0.0
    done: Optional[Event] = None
    #: True when the request could not be served (module dead, read
    #: retries exhausted, no live replica); failed requests never enter
    #: the response statistics
    failed: bool = False
    #: why the request failed ("dead", "read_error", "unavailable")
    fail_reason: str = ""
    #: True when service crossed the fault path (down-window wait,
    #: degraded latency, read retries, failover) -- QoS violations on
    #: faulted requests are reported as degraded-mode violations
    faulted: bool = False
    #: read-error retries plus driver-level failovers consumed
    retries: int = 0

    @property
    def response_ms(self) -> float:
        """I/O driver response time (issue -> completion)."""
        return self.completed_at - self.issued_at

    @property
    def delay_ms(self) -> float:
        """Admission / alignment delay before issue."""
        return self.issued_at - self.arrival

    @property
    def total_ms(self) -> float:
        """End-to-end latency seen by the application."""
        return self.completed_at - self.arrival


class FlashArray:
    """``n_modules`` flash modules sharing a simulation environment.

    The array is deliberately policy-free: *which* module serves a
    request is decided by the retrieval layer; the array provides the
    queueing and timing substrate plus response accounting.
    """

    def __init__(self, env: Environment, n_modules: int,
                 params: Optional[FlashParams] = None,
                 priority_queues: bool = False,
                 module_factory=None, faults=None):
        if n_modules < 1:
            raise ValueError("need at least one module")
        if faults is not None and module_factory is not None:
            raise ValueError("fault injection requires the standard "
                             "FlashModule; custom module types are "
                             "not fault-aware")
        self.env = env
        self.params = params or FlashParams()
        #: optional :class:`repro.faults.FaultSchedule` injected into
        #: every module's service loop
        self.faults = faults
        if module_factory is not None:
            # custom module type (channel-level geometry, HDD, ...);
            # must be interface-compatible with FlashModule
            self.modules = [module_factory(env, i)
                            for i in range(n_modules)]
        else:
            views = [None] * n_modules
            if faults is not None and len(faults):
                from repro.faults.view import ModuleFaultView

                views = [ModuleFaultView(faults, i)
                         for i in range(n_modules)]
            self.modules = [
                FlashModule(env, i, self.params,
                            priority_queue=priority_queues,
                            faults=views[i])
                for i in range(n_modules)]
        self.stats = ResponseStats()

    @property
    def n_modules(self) -> int:
        return len(self.modules)

    def issue(self, request: IORequest, device: int) -> Event:
        """Issue ``request`` to ``device``; returns its completion event.

        Sets ``issued_at`` to the current simulation time and hooks the
        completion into the array's response statistics.
        """
        if not 0 <= device < self.n_modules:
            raise IndexError(f"device {device} out of range")
        request.issued_at = self.env.now
        request.done = self.env.event()
        request.done.add_callback(self._on_complete)
        if obs.ACTIVE:
            obs.SESSION.on_issue()
        self.modules[device].submit(request)
        return request.done

    def _on_complete(self, event: Event) -> None:
        request: IORequest = event.value
        if obs.ACTIVE:
            obs.SESSION.on_complete()
        if request.failed:
            # Failed attempts carry no meaningful response time; the
            # driver decides whether to fail over or give up.
            return
        self.stats.record(request.response_ms, request.delay_ms)

    def queue_depths(self) -> List[int]:
        """Snapshot of per-module queue depths."""
        return [m.queue_depth for m in self.modules]
