"""Flash-array simulator (the DiskSim + SSD-extension substitute).

The paper drives a DiskSim build extended with Microsoft Research's SSD
model, in which one 8 KB read costs 0.132507 ms.  This package
implements the equivalent substrate on our DES kernel:

* :class:`~repro.flash.params.FlashParams` -- device timing/geometry,
* :class:`~repro.flash.module.FlashModule` -- one flash module with a
  FCFS service queue (a DES process),
* :class:`~repro.flash.array.FlashArray` -- ``N`` modules behind a
  controller with per-request completion events,
* :class:`~repro.flash.metrics.ResponseStats` -- I/O-driver response
  time accounting (avg / std / max, per run and per interval),
* :mod:`~repro.flash.driver` -- trace players: interval-batch
  (design-theoretic) and online,
* :class:`~repro.flash.played.PlayedTable` -- the per-request results
  every player returns, as columns.
"""

from repro.flash.array import FlashArray, IORequest
from repro.flash.driver import BatchTracePlayer, OnlineTracePlayer
from repro.flash.metrics import ResponseStats
from repro.flash.module import FlashModule
from repro.flash.params import MSR_SSD_PARAMS, FlashParams
from repro.flash.played import PlayedTable

__all__ = [
    "BatchTracePlayer",
    "FlashArray",
    "FlashModule",
    "FlashParams",
    "IORequest",
    "MSR_SSD_PARAMS",
    "OnlineTracePlayer",
    "PlayedTable",
    "ResponseStats",
]
