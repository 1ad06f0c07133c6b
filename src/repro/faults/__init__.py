"""``repro.faults``: deterministic, seed-driven fault injection.

The paper's value proposition is that replicated declustering keeps
QoS promises when modules misbehave; this package supplies the
misbehaviour.  Fault scenarios are either scripted explicitly
(:class:`FaultSchedule`) or drawn from seeded stochastic processes
(:class:`FaultModel`) and materialised before the run, so faulty
simulations stay byte-reproducible: same seed + same fault config =
identical output, enforced by ``python -m repro.check --probe faults``.

Wiring (see :doc:`docs/faults.md </../docs/faults>`):

* :class:`ModuleFaultView` is consulted by the DES flash module --
  crash, down windows, latency degradation, read-error-with-retry;
* the trace players mask dead/down modules out of every candidate set
  (failure-aware retrieval) and fail requests over to surviving
  replicas with retry-and-backoff (:class:`RetryPolicy`);
* faulted configurations keep the closed-form fast engine
  (:func:`repro.flash.driver.select_engine`): the materialised
  schedule is replayed event-free by
  :class:`repro.flash.faulted.FaultedReplay`, byte-identical to the
  DES;
* ``repro.obs`` gains ``faults.*`` counters and degraded-mode
  violation accounting in the ledger.
"""

from repro.faults.models import (
    FAULT_KINDS,
    FAULT_SCOPES,
    FaultEvent,
    FaultModel,
    FaultSchedule,
    RetryPolicy,
)
from repro.faults.view import ModuleFaultView

__all__ = [
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "FaultEvent",
    "FaultModel",
    "FaultSchedule",
    "ModuleFaultView",
    "RetryPolicy",
]
