"""Channel-level flash module internals.

The paper's Figure 1 shows each flash module as multiple flash
*packages* behind a flash module controller (FMC) sharing one channel
bus.  The top-level experiments only need the aggregate service time,
but the substrate models the internals so the intra-module ablation can
ask where that 0.132507 ms goes:

* the NAND **array read** (``page_read_ms``) runs in parallel across
  packages;
* the **bus transfer** (``transfer_ms``) serialises on the channel.

:class:`ChannelFlashModule` is a drop-in alternative to
:class:`repro.flash.module.FlashModule`: with one package it behaves
identically (read = page_read + transfer, FCFS); with more packages,
array reads overlap and the channel becomes the bottleneck, raising the
module's saturation throughput from ``1/read_ms`` to
``~1/transfer_ms``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.flash.params import FlashParams
from repro.sim import Environment, Resource, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.flash.array import IORequest

__all__ = ["ChannelFlashModule"]


class ChannelFlashModule:
    """A flash module with ``n_packages`` dies behind one channel.

    Requests are dispatched round-robin by block number to packages;
    each package pipelines (array read in parallel, then queues for the
    shared bus).  Interface-compatible with
    :class:`~repro.flash.module.FlashModule`.
    """

    def __init__(self, env: Environment, module_id: int,
                 params: Optional[FlashParams] = None,
                 n_packages: int = 4):
        if n_packages < 1:
            raise ValueError("n_packages must be >= 1")
        self.env = env
        self.module_id = module_id
        self.params = params or FlashParams()
        self.n_packages = n_packages
        self.bus = Resource(env, capacity=1)
        self.package_queues: List[Store] = [Store(env)
                                            for _ in range(n_packages)]
        self.n_served = 0
        self.busy_time = 0.0  # bus occupancy
        for p in range(n_packages):
            env.process(self._package_loop(p))

    def submit(self, request: "IORequest") -> None:
        """Enqueue ``request`` on its block's home package."""
        request.device = self.module_id
        request.enqueued_at = self.env.now
        pkg = int(request.bucket) % self.n_packages
        self.package_queues[pkg].put(request)

    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self.package_queues)

    def utilisation(self, elapsed: float) -> float:
        """Channel-bus utilisation over ``elapsed``."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def _package_loop(self, pkg: int):
        params = self.params
        while True:
            request = yield self.package_queues[pkg].get()
            request.started_at = self.env.now
            # NAND array phase: parallel across packages.
            array_ms = (params.page_read_ms if request.is_read
                        else params.page_program_ms)
            yield self.env.timeout(array_ms)
            # Channel phase: one transfer at a time per module.
            with self.bus.request() as grant:
                yield grant
                xfer = params.transfer_ms
                yield self.env.timeout(xfer)
                self.busy_time += xfer
            self.n_served += 1
            request.completed_at = self.env.now
            request.done.succeed(request)
