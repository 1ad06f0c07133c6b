"""The recording session: where all observability hooks land.

An :class:`ObsSession` groups the registry, tracer, module series and
violation ledger behind the hook methods the instrumented code calls.
Its exported *payload* (a plain picklable/JSON-able dict) has two
sections:

``request``
    Everything derived from played request timestamps -- latency
    histograms, lifecycle spans, per-module series, the violation
    ledger.  Both playback engines produce **identical** request
    sections on eligible configurations, because the hooks run over
    the same bit-identical timestamps (enforced by the fastpath
    identity tests and the ``obs`` determinism probe).

``kernel``
    DES-internal accounting -- simulation event counts, per-module
    served counters, live span open/close tallies.  The fast path has
    no kernel, so this section is engine-specific by design and
    excluded from cross-engine identity checks
    (:func:`request_sections` selects the comparable part).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.obs.ledger import ViolationLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.series import ModuleSeries, module_interval_series
from repro.obs.spans import Tracer

__all__ = ["ObsSession", "request_sections"]

PAYLOAD_VERSION = 1


def request_sections(payload: Dict[str, object]) -> Dict[str, object]:
    """The engine-independent part of a payload.

    Two runs of the same workload -- DES or fast path, one process or
    many -- must agree on this section exactly.
    """
    return payload["request"]  # type: ignore[return-value]


class ObsSession:
    """One recording session (typically: one experiment cell)."""

    def __init__(self, max_spans: Optional[int] = None):
        #: engine-independent metrics (latency histograms, counters)
        self.registry = MetricsRegistry()
        #: DES-internal metrics (event counts, module served counts)
        self.kernel = MetricsRegistry()
        self.tracer = Tracer() if max_spans is None else \
            Tracer(max_spans=max_spans)
        self.series = ModuleSeries()
        self.ledger = ViolationLedger()

    # -- kernel-side hooks (DES only) ------------------------------------
    def on_kernel_event(self, event_type: str) -> None:
        """One event popped off the simulation queue."""
        self.kernel.counter(f"sim.events.{event_type}").inc()

    def on_service(self, module_id: int) -> None:
        """One request served by a flash module's service loop."""
        self.kernel.counter(f"module.{module_id}.served").inc()

    def on_issue(self) -> None:
        """A request was issued to a module (span opens)."""
        self.tracer.open_live()

    def on_complete(self) -> None:
        """A request completed on a module (span closes)."""
        self.tracer.close_live()

    def on_kernel_cache(self, cache: str, hit: bool) -> None:
        """One lookup in a retrieval-kernel memo cache."""
        outcome = "hit" if hit else "miss"
        self.kernel.counter(f"kernels.{cache}.{outcome}").inc()

    def on_warm_start(self, repaired: bool) -> None:
        """One warm-started matcher update (arrival or departure).

        ``repaired`` is True when the incremental augmenting-path
        repair kept the assignment maximum without a full re-solve.
        """
        outcome = "repaired" if repaired else "pending"
        self.kernel.counter(f"kernels.warm_start.{outcome}").inc()

    # -- fault hooks ------------------------------------------------------
    def on_fault(self, kind: str, count: int = 1) -> None:
        """One fault-layer incident.

        ``kind`` is a short slug -- ``read_error``, ``read_retry``,
        ``failover``, ``unavailable``, ``dead_module``, ``down_wait``,
        ``slow_service``, ``degraded_write`` -- landing on the
        ``faults.{kind}`` counter.  Both engines emit these (the DES
        module/driver fault paths and the
        :class:`repro.flash.faulted.FaultedReplay` mirror) with
        identical counts, so they live in the engine-compared request
        section like every other request-derived metric.
        """
        self.registry.counter(f"faults.{kind}").inc(count)

    def on_engine(self, engine: str, reason: str = "") -> None:
        """One playback engine selection by a trace player.

        Lands in the *kernel* (engine-specific) section by design:
        ``engine.fast`` / ``engine.des`` counters plus
        ``engine.fallback.{reason}`` naming why the fast path was
        declined -- benches report fast-path coverage from these.
        """
        self.kernel.counter(f"engine.{engine}").inc()
        if reason:
            self.kernel.counter(f"engine.fallback.{reason}").inc()

    # -- request-side hooks (engine-independent) -------------------------
    def on_admission(self, kind: str, count: int = 1) -> None:
        """One admission-controller decision over an offered request.

        ``kind`` is ``admitted``, ``delayed`` (admitted after an
        overflow requeue or a busy-device wait) or ``rejected``,
        landing on the ``admission.{kind}`` counter.  Both the scalar
        driver loop and the vectorized admission kernel
        (:mod:`repro.flash.admitpath`) emit these with identical
        totals, so they live in the engine-compared request section.
        """
        self.registry.counter(f"admission.{kind}").inc(count)

    def observe_request(self, pr) -> None:
        """Fold one :class:`~repro.flash.played.PlayedRequest`-shaped
        object in (see :meth:`observe_played`)."""
        from repro.flash.played import PlayedTable

        self.observe_played(PlayedTable.from_requests([pr]))

    def observe_played(self, played) -> None:
        """Fold a :class:`~repro.flash.played.PlayedTable` in.

        Called from the shared series-collection pass, so DES and fast
        playback observe the same requests with the same floats.
        Counters and histograms fold whole columns (histogram state is
        order-independent); lifecycle spans are derived row by row, in
        play order.
        """
        n = len(played)
        if not n:
            return
        reg = self.registry
        reg.counter("requests.total").inc(n)
        rejected = played.rejected
        failed = played.failed & ~rejected
        served = ~(rejected | failed)
        delayed = served & played.delayed
        for name, mask in (("requests.rejected", rejected),
                           ("requests.failed", failed),
                           ("requests.faulted", served & played.faulted),
                           ("requests.writes", served & ~played.is_read),
                           ("requests.delayed", delayed)):
            count = int(np.count_nonzero(mask))
            if count:
                reg.counter(name).inc(count)
        if not served.any():
            return
        rows = played[served]
        reg.histogram("latency.response_ms").record_array(rows.response_ms)
        reg.histogram("latency.total_ms").record_array(rows.total_ms)
        if delayed.any():
            reg.histogram("latency.delay_ms").record_array(
                played[delayed].delay_ms)
        emit = self.tracer.emit_request
        for (arrival, bucket, _, issued, _, started, completed, device,
             interval, index, _, _, _), was_delayed in zip(
                 rows.data.tolist(), rows.delayed.tolist()):
            emit(arrival, bucket, device, issued, started, completed,
                 interval, index, was_delayed)

    def observe_responses_array(self, responses: np.ndarray) -> None:
        """Bulk-record response times with no per-request detail.

        For vectorized paths that never materialise ``PlayedRequest``
        objects (the original-array baseline playback): histograms and
        counts still land, spans/series do not.
        """
        arr = np.ascontiguousarray(responses, dtype=np.float64)
        self.registry.counter("requests.total").inc(int(arr.size))
        self.registry.histogram("latency.response_ms").record_array(arr)

    def record_module_series(self, played, n_devices: int,
                             interval_ms: float) -> None:
        """Compute and fold in the per-module interval series of a
        :class:`~repro.flash.played.PlayedTable`."""
        self.series.merge(module_interval_series(
            played, n_devices, interval_ms))

    # -- QoS hooks --------------------------------------------------------
    def record_qos_report(self, report, tenant: str = "") -> None:
        """Ledger every guarantee violation in a QoS report.

        ``tenant`` names the ledger row (empty for single-tenant
        runs).  Violations incurred on the degraded path -- requests
        that survived a fault (failover, retry, down window, slowdown)
        or failed outright -- are reported *distinctly*: they land on
        the ``faults.qos.*`` counters and are ledgered with
        ``degraded=True``, so operators can separate "the scheme broke
        its promise" from "the hardware did".  Rows are ledgered in
        play order.
        """
        guarantee = report.guarantee_ms
        reg = self.registry
        played = report.requests
        counted = ~played.rejected
        failed = counted & played.failed
        excess = played.response_ms - guarantee
        over = counted & ~failed & (excess > 1e-9)
        faulted = played.faulted
        interval = played.interval
        for i in np.flatnonzero(failed | over).tolist():
            if failed[i]:
                # The request never completed: an unconditional
                # guarantee miss, attributed to the fault layer.
                reg.counter("faults.qos.failed").inc()
                self.ledger.record(tenant, int(interval[i]), guarantee,
                                   degraded=True)
            elif faulted[i]:
                reg.counter("faults.qos.violations").inc()
                self.ledger.record(tenant, int(interval[i]),
                                   float(excess[i]), degraded=True)
            else:
                reg.counter("qos.violations").inc()
                self.ledger.record(tenant, int(interval[i]),
                                   float(excess[i]))
        reg.counter("qos.requests").inc(len(played))

    def on_controller(self, event: str, count: int = 1) -> None:
        """One live-controller decision (:mod:`repro.controller`).

        ``event`` is a short slug -- ``boundary``, ``replan``,
        ``delta_applied``, ``delta_deferred``, ``delta_blocked``,
        ``rescue``, ``epsilon_update`` -- landing on the
        ``controller.{event}`` counter.  Controller decisions are
        derived purely from mined patterns and played-request
        timestamps, so the counters live in the engine-compared
        request section.
        """
        self.registry.counter(f"controller.{event}").inc(count)

    def on_sla_observation(self, ok: bool) -> None:
        """One observation fed to a :class:`repro.core.monitor.SLAMonitor`."""
        self.registry.counter("sla.observed").inc()
        if not ok:
            self.registry.counter("sla.violations").inc()

    # -- payload -----------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Deterministic, picklable export of everything recorded."""
        tracer = self.tracer.to_dict()
        live_opened = tracer.pop("live_opened")
        live_closed = tracer.pop("live_closed")
        return {
            "version": PAYLOAD_VERSION,
            "request": {
                "metrics": self.registry.to_dict(),
                "tracer": tracer,
                "series": self.series.to_dict(),
                "ledger": self.ledger.to_dict(),
            },
            "kernel": {
                "metrics": self.kernel.to_dict(),
                "live_opened": live_opened,
                "live_closed": live_closed,
            },
        }

    def merge_payload(self, payload: Dict[str, object]) -> None:
        """Fold an exported payload into this session.

        The parallel runner calls this once per cell, in submission
        order, so merged artefacts are deterministic regardless of
        worker scheduling.
        """
        version = payload.get("version")
        if version != PAYLOAD_VERSION:
            raise ValueError(
                f"unsupported obs payload version {version!r}")
        request = payload["request"]  # type: ignore[index]
        self.registry.merge_dict(request["metrics"])
        self.tracer.merge_dict(request["tracer"])
        self.series.merge(ModuleSeries.from_dict(request["series"]))
        self.ledger.merge(ViolationLedger.from_dict(request["ledger"]))
        kernel = payload["kernel"]  # type: ignore[index]
        self.kernel.merge_dict(kernel["metrics"])
        self.tracer.live_opened += int(kernel["live_opened"])
        self.tracer.live_closed += int(kernel["live_closed"])
