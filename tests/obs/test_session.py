"""Session payload structure, merge semantics and the guard switch."""

import json
from types import SimpleNamespace

import pytest

from repro import obs
from repro.obs import ObsSession, request_sections
from repro.obs.ledger import ViolationLedger
from repro.obs.session import PAYLOAD_VERSION


def fake_request(index=0, interval=0, response_ms=1.0, delayed=False,
                 rejected=False, device=0, arrival=0.0, delay_ms=0.0,
                 is_read=True, app=""):
    """A PlayedRequest-shaped object for hook-level tests."""
    issued = arrival + delay_ms
    io = SimpleNamespace(
        arrival=arrival, bucket=index, is_read=is_read, app=app,
        device=device, issued_at=issued, started_at=issued,
        completed_at=issued + response_ms, response_ms=response_ms,
        total_ms=delay_ms + response_ms, delay_ms=delay_ms)
    return SimpleNamespace(io=io, interval=interval, delayed=delayed,
                           index=index, rejected=rejected)


class TestObsSession:
    def test_payload_shape(self):
        session = ObsSession()
        session.observe_request(fake_request())
        payload = session.to_payload()
        assert payload["version"] == PAYLOAD_VERSION
        assert set(payload) == {"version", "request", "kernel"}
        assert set(payload["request"]) == {"metrics", "tracer",
                                           "series", "ledger"}
        assert set(payload["kernel"]) == {"metrics", "live_opened",
                                          "live_closed"}
        assert request_sections(payload) is payload["request"]
        # JSON-serializable end to end
        json.dumps(payload)

    def test_observe_request_counters(self):
        session = ObsSession()
        session.observe_request(fake_request(response_ms=2.0))
        session.observe_request(fake_request(
            index=1, response_ms=3.0, delayed=True, delay_ms=0.5))
        session.observe_request(fake_request(index=2, rejected=True))
        session.observe_request(fake_request(index=3, is_read=False))
        counters = session.registry.to_dict()["counters"]
        assert counters["requests.total"] == 4
        assert counters["requests.rejected"] == 1
        assert counters["requests.delayed"] == 1
        assert counters["requests.writes"] == 1
        hist = session.registry.histogram("latency.response_ms")
        assert hist.count == 3  # rejected request records no latency

    def test_rejected_request_emits_no_span(self):
        session = ObsSession()
        session.observe_request(fake_request(rejected=True))
        assert session.tracer.spans == []

    def test_merge_payload_equals_single_session(self):
        requests = [fake_request(index=i, response_ms=1.0 + i,
                                 delayed=i % 3 == 0, delay_ms=0.1 * i,
                                 device=i % 4)
                    for i in range(30)]
        one = ObsSession()
        for pr in requests:
            one.observe_request(pr)
        parent = ObsSession()
        for chunk in (requests[:11], requests[11:]):
            child = ObsSession()
            for pr in chunk:
                child.observe_request(pr)
            parent.merge_payload(child.to_payload())
        assert json.dumps(parent.to_payload(), sort_keys=True) \
            == json.dumps(one.to_payload(), sort_keys=True)

    def test_merge_rejects_unknown_version(self):
        session = ObsSession()
        payload = session.to_payload()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            session.merge_payload(payload)

    def test_kernel_hooks_counted(self):
        session = ObsSession()
        session.on_kernel_event("TimeoutEvent")
        session.on_kernel_event("TimeoutEvent")
        session.on_service(3)
        session.on_issue()
        session.on_complete()
        payload = session.to_payload()
        counters = payload["kernel"]["metrics"]["counters"]
        assert counters["sim.events.TimeoutEvent"] == 2
        assert counters["module.3.served"] == 1
        assert payload["kernel"]["live_opened"] == 1
        assert payload["kernel"]["live_closed"] == 1

    def test_sla_hook(self):
        session = ObsSession()
        session.on_sla_observation(True)
        session.on_sla_observation(False)
        counters = session.registry.to_dict()["counters"]
        assert counters["sla.observed"] == 2
        assert counters["sla.violations"] == 1


class TestObservedSwitch:
    def test_disabled_by_default(self):
        assert obs.ACTIVE is False

    def test_observed_enables_and_restores(self):
        assert not obs.ACTIVE
        with obs.observed() as session:
            assert obs.ACTIVE
            assert obs.SESSION is session
        assert not obs.ACTIVE

    def test_nesting_restores_outer_session(self):
        with obs.observed() as outer:
            with obs.observed() as inner:
                assert obs.SESSION is inner
            assert obs.SESSION is outer
            assert obs.ACTIVE
        assert not obs.ACTIVE

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.observed():
                raise RuntimeError("boom")
        assert not obs.ACTIVE


class TestViolationLedger:
    def test_record_and_totals(self):
        ledger = ViolationLedger()
        ledger.record("a", 0, 1.5)
        ledger.record("a", 1, 0.5)
        ledger.record("b", 0, 2.0)
        assert ledger.total == 3
        assert ledger.by_tenant["a"] == (2, 2.0)

    def test_bounded_entries_exact_totals(self):
        ledger = ViolationLedger(max_entries=2)
        for i in range(5):
            ledger.record("t", i, 1.0)
        assert len(ledger.entries) == 2
        assert ledger.dropped == 3
        assert ledger.total == 5  # aggregate accounting is unbounded

    def test_merge_and_roundtrip(self):
        a = ViolationLedger()
        a.record("x", 0, 1.0)
        b = ViolationLedger()
        b.record("x", 1, 2.0)
        b.record("y", 0, 3.0)
        a.merge(ViolationLedger.from_dict(
            json.loads(json.dumps(b.to_dict()))))
        assert a.total == 3
        assert a.by_tenant["x"] == (2, 3.0)
        assert a.by_tenant["y"] == (1, 3.0)


class TestAdmissionHooks:
    def test_on_admission_counts_into_request_section(self):
        session = ObsSession()
        session.on_admission("admitted", 5)
        session.on_admission("delayed", 2)
        session.on_admission("rejected")
        payload = session.to_payload()
        counters = payload["request"]["metrics"]["counters"]
        assert counters["admission.admitted"] == 5
        assert counters["admission.delayed"] == 2
        assert counters["admission.rejected"] == 1
