"""A mechanical hard-disk module, for the paper's motivation claim.

Paper §II-A: "flash arrays do not have variable delays caused by
mechanical process of accessing disk data such as rotational delay,
seek time ... Because of these unpredictable delays, proposing a QoS
framework for traditional HDD based storage arrays cannot exceed
providing a best effort performance rather than giving response time
guarantees."

:class:`HDDModule` is interface-compatible with
:class:`~repro.flash.module.FlashModule` but serves each request with

    ``seek(distance) + rotational latency + transfer``

where the seek depends on how far the head must travel from the
previous request's block and the rotational latency is uniform over a
revolution.  Under the *same* design-theoretic allocation, the variance
of these delays breaks the deterministic guarantee -- exactly the
motivation ablation measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim import Environment, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.flash.array import IORequest

__all__ = ["HDDParams", "HDDModule", "ENTERPRISE_15K"]


@dataclass(frozen=True)
class HDDParams:
    """Timing of a mechanical disk (milliseconds).

    Attributes
    ----------
    full_seek_ms:
        Head travel across the whole surface; a request's seek is
        ``full_seek_ms * sqrt(distance_fraction)`` (the classic
        acceleration-limited seek curve).
    min_seek_ms:
        Track-to-track seek, the floor for any non-zero distance.
    rpm:
        Spindle speed; rotational latency is uniform on
        ``[0, 60000/rpm)``.
    transfer_ms:
        Media transfer time for one 8 KB block.
    n_blocks:
        Addressable blocks (for distance normalisation).
    """

    full_seek_ms: float = 8.0
    min_seek_ms: float = 0.3
    rpm: int = 15_000
    transfer_ms: float = 0.05
    n_blocks: int = 1 << 20

    def __post_init__(self):
        if self.full_seek_ms < self.min_seek_ms:
            raise ValueError("full seek cannot undercut minimum seek")
        if self.rpm <= 0 or self.transfer_ms < 0 or self.n_blocks < 1:
            raise ValueError("invalid HDD parameters")

    @property
    def revolution_ms(self) -> float:
        return 60_000.0 / self.rpm

    def seek_ms(self, from_block: int, to_block: int) -> float:
        """Seek time for a head move between two blocks."""
        if from_block == to_block:
            return 0.0
        frac = abs(to_block - from_block) / self.n_blocks
        return max(self.min_seek_ms,
                   self.full_seek_ms * math.sqrt(min(1.0, frac)))


#: A 15K RPM enterprise drive -- the best HDDs the paper's era offered.
ENTERPRISE_15K = HDDParams()


class HDDModule:
    """One mechanical disk with a FCFS queue.

    Interface-compatible with :class:`~repro.flash.module.FlashModule`
    so it drops into :class:`~repro.flash.array.FlashArray` via the
    ``module_factory`` hook.  Rotational latency is drawn from a
    deterministic per-module RNG so runs stay reproducible.
    """

    def __init__(self, env: Environment, module_id: int,
                 params: Optional[HDDParams] = None, seed: int = 0):
        self.env = env
        self.module_id = module_id
        self.hdd = params or ENTERPRISE_15K
        self.queue: Store = Store(env)
        self.busy = False
        self.n_served = 0
        self.busy_time = 0.0
        self._head = 0
        self._rng = np.random.default_rng(seed * 1009 + module_id)
        env.process(self._service_loop())

    def submit(self, request: "IORequest") -> None:
        request.device = self.module_id
        request.enqueued_at = self.env.now
        self.queue.put(request)

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def utilisation(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def _service_loop(self):
        while True:
            request = yield self.queue.get()
            self.busy = True
            request.started_at = self.env.now
            target = int(request.bucket) % self.hdd.n_blocks
            seek = self.hdd.seek_ms(self._head, target)
            rotation = float(self._rng.uniform(0,
                                               self.hdd.revolution_ms))
            service = seek + rotation + self.hdd.transfer_ms
            self._head = target
            yield self.env.timeout(service)
            self.busy = False
            self.busy_time += service
            self.n_served += 1
            request.completed_at = self.env.now
            request.done.succeed(request)
