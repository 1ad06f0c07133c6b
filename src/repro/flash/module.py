"""One flash module: a FCFS service queue on the DES kernel.

A :class:`FlashModule` runs a service loop as a simulation process:
requests enter an unbounded FIFO queue and are served one at a time,
each occupying the module for its deterministic service time.  This is
exactly the contention model behind the paper's DiskSim runs -- flash
has no positional delays, so a module is a constant-rate server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.check import sanitizers
from repro.flash.params import FlashParams
from repro.sim import Environment, Store
from repro.sim.resources import PriorityStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.flash.array import IORequest

__all__ = ["FlashModule"]


class FlashModule:
    """A single flash module with its own controller queue.

    Parameters
    ----------
    env:
        Simulation environment.
    module_id:
        Device index inside the array.
    params:
        Timing parameters; defaults to the paper's MSR SSD constants.
    """

    def __init__(self, env: Environment, module_id: int,
                 params: Optional[FlashParams] = None,
                 priority_queue: bool = False,
                 faults=None):
        self.env = env
        self.module_id = module_id
        self.params = params or FlashParams()
        #: optional :class:`repro.faults.ModuleFaultView`; when set
        #: (and not quiet), service consults the fault schedule --
        #: crashes fail requests, down windows stall service, slow
        #: windows stretch it, read-error windows trigger seeded
        #: retry-with-backoff.  ``None`` (or a quiet view) keeps the
        #: healthy service loop byte-identical to the pre-fault code.
        self.faults = faults if faults is not None \
            and not faults.quiet else None
        #: with a priority queue, lower ``IORequest.priority`` values
        #: are served first (background work yields to foreground)
        self.queue = PriorityStore(env) if priority_queue else Store(env)
        self.busy = False
        self.n_served = 0
        self.busy_time = 0.0
        #: enqueue time of the last request taken into service; the
        #: FCFS sanitizer asserts this never regresses on FIFO queues
        self._last_enqueued: Optional[float] = None
        env.process(self._service_loop())

    def submit(self, request: "IORequest") -> None:
        """Enqueue ``request`` for service on this module."""
        request.device = self.module_id
        request.enqueued_at = self.env.now
        if isinstance(self.queue, PriorityStore):
            self.queue.put(request, priority=request.priority)
        else:
            self.queue.put(request)

    @property
    def queue_depth(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self.queue)

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def _service_loop(self):
        while True:
            request = yield self.queue.get()
            if sanitizers.ACTIVE \
                    and not isinstance(self.queue, PriorityStore):
                sanitizers.check_fcfs_order(
                    self.module_id, self._last_enqueued,
                    request.enqueued_at)
                self._last_enqueued = request.enqueued_at
            if self.faults is not None:
                yield from self._serve_faulty(request)
                continue
            self.busy = True
            request.started_at = self.env.now
            service = self.params.service_ms(request.is_read)
            yield self.env.timeout(service)
            self.busy = False
            self.busy_time += service
            self.n_served += 1
            if obs.ACTIVE:
                obs.SESSION.on_service(self.module_id)
            request.completed_at = self.env.now
            request.done.succeed(request)

    # -- fault path --------------------------------------------------------
    def _fail(self, request: "IORequest", reason: str) -> None:
        """Complete ``request`` as failed (driver decides failover)."""
        request.failed = True
        request.fail_reason = reason
        request.faulted = True
        request.completed_at = self.env.now
        if obs.ACTIVE:
            obs.SESSION.on_fault(
                "dead_module" if reason == "dead" else reason)
        request.done.succeed(request)

    def _serve_faulty(self, request: "IORequest"):
        """Service one request with the fault schedule in force.

        Crash semantics take effect at service-start boundaries: a
        request already past its last read attempt completes, the next
        dequeue fails.  Down windows stall the module (the request
        waits), slow windows stretch the attempt it overlaps, and a
        read-error draw below the window's probability costs one
        backoff per the schedule's :class:`~repro.faults.RetryPolicy`
        before the attempt is repeated.
        """
        view = self.faults
        if view.dead_at(self.env.now):
            self._fail(request, "dead")
            return
        available = view.available_from(self.env.now)
        if available == float("inf"):
            # The down window runs straight into a crash.
            self._fail(request, "dead")
            return
        if available > self.env.now:
            request.faulted = True
            if obs.ACTIVE:
                obs.SESSION.on_fault("down_wait")
            yield self.env.timeout_until(available)
        self.busy = True
        request.started_at = self.env.now
        base = self.params.service_ms(request.is_read)
        attempt = 0
        while True:
            t0 = self.env.now
            service = base * view.slowdown(t0)
            if service != base:
                request.faulted = True
                if obs.ACTIVE:
                    obs.SESSION.on_fault("slow_service")
            yield self.env.timeout(service)
            self.busy_time += service
            prob = view.error_prob(t0) if request.is_read else 0.0
            if prob > 0.0 and view.next_error_draw() < prob:
                request.faulted = True
                if obs.ACTIVE:
                    obs.SESSION.on_fault("read_error")
                if attempt >= view.retry.max_retries:
                    self.busy = False
                    self._fail(request, "read_error")
                    return
                backoff = view.retry.delay(attempt)
                attempt += 1
                request.retries += 1
                if obs.ACTIVE:
                    obs.SESSION.on_fault("read_retry")
                if backoff > 0:
                    yield self.env.timeout(backoff)
                continue
            break
        self.busy = False
        self.n_served += 1
        if obs.ACTIVE:
            obs.SESSION.on_service(self.module_id)
        request.completed_at = self.env.now
        request.done.succeed(request)
