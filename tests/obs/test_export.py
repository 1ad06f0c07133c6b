"""Exporter golden/schema tests and the ``python -m repro.obs`` CLI."""

import json

import pytest

from repro.obs import ObsSession
from repro.obs import cli as obs_cli
from repro.obs import export as obs_export

from tests.obs.test_session import fake_request


@pytest.fixture()
def payload():
    """A small but fully-populated payload."""
    session = ObsSession()
    session.observe_request(fake_request(
        index=0, interval=0, response_ms=0.5, device=2))
    session.observe_request(fake_request(
        index=1, interval=0, response_ms=1.25, delayed=True,
        delay_ms=0.25, device=0))
    session.observe_request(fake_request(
        index=2, interval=1, response_ms=0.75, device=-1,
        is_read=False))
    session.on_kernel_event("TimeoutEvent")
    session.on_issue()
    session.on_complete()
    session.ledger.record("tenant-a", 0, 0.125)
    session.series.interval_ms = 0.133
    session.series.n_devices = 3
    session.series.busy_ms[(2, 0)] = 0.05
    session.series.depth[(0, 1)] = 4
    return session.to_payload()


class TestChromeTrace:
    def test_schema_golden(self, payload):
        trace = obs_export.to_chrome_trace(payload)
        obs_export.validate_chrome_trace(trace)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        # request 0: service span; request 1: admission + service;
        # request 2: write span on the -1 pseudo-thread
        assert sorted(e["name"] for e in complete) \
            == ["admission", "service", "service", "write"]
        # metadata: process_name + one thread_name per distinct tid
        assert {e["name"] for e in meta} \
            == {"process_name", "thread_name"}
        labels = {e["tid"]: e["args"]["name"] for e in meta
                  if e["name"] == "thread_name"}
        assert labels[-1] == "writes"
        assert labels[2] == "module 2"

    def test_microsecond_scaling(self, payload):
        trace = obs_export.to_chrome_trace(payload)
        service = next(
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 2)
        # sim time is ms; the trace_event format wants microseconds
        assert service["ts"] == pytest.approx(0.0)
        assert service["dur"] == pytest.approx(500.0)
        assert service["args"]["index"] == 0

    def test_json_file_roundtrip_validates(self, payload, tmp_path):
        trace = obs_export.to_chrome_trace(payload)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        obs_export.validate_chrome_trace(
            json.loads(path.read_text()))

    @pytest.mark.parametrize("mutate, match", [
        (lambda t: t.__setitem__("traceEvents", {}), "list"),
        (lambda t: t["traceEvents"][0].pop("ph"), "missing 'ph'"),
        (lambda t: t["traceEvents"][0].update(ph="Q"), "phase"),
    ])
    def test_validator_rejects_broken_traces(self, payload, mutate,
                                             match):
        trace = obs_export.to_chrome_trace(payload)
        mutate(trace)
        with pytest.raises(ValueError, match=match):
            obs_export.validate_chrome_trace(trace)

    def test_validator_rejects_negative_duration(self, payload):
        trace = obs_export.to_chrome_trace(payload)
        event = next(e for e in trace["traceEvents"]
                     if e["ph"] == "X")
        event["dur"] = -1.0
        with pytest.raises(ValueError, match="dur"):
            obs_export.validate_chrome_trace(trace)


class TestSummary:
    def test_summary_contents(self, payload):
        summary = obs_export.summarize_payload(payload)
        assert summary["counters"]["requests.total"] == 3
        assert summary["violations"]["total"] == 1
        assert summary["violations"]["by_tenant"]["tenant-a"][0] == 1
        assert summary["spans"]["recorded"] == 4
        assert summary["spans"]["live_opened"] == 1
        assert summary["kernel_events"] == 1
        hist = summary["histograms"]["latency.response_ms"]
        assert hist["count"] == 3
        assert hist["p50"] <= hist["p99"] <= hist["max"]

    def test_json_summary_is_stable_text(self, payload):
        a = obs_export.to_json_summary(payload)
        b = obs_export.to_json_summary(
            json.loads(json.dumps(payload)))
        assert a == b
        json.loads(a)


class TestCsvAndPrometheus:
    def test_csv_series(self, payload):
        text = obs_export.to_csv_series(payload)
        lines = text.strip().splitlines()
        assert lines[0] == "device,interval,busy_ms,utilisation," \
                           "queue_depth"
        assert len(lines) == 3  # two populated cells
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["device"] == "0"
        assert row["queue_depth"] == "4"

    def test_prometheus_format(self, payload):
        text = obs_export.to_prometheus(payload)
        assert "# TYPE repro_requests_total counter\n" in text
        assert "repro_requests_total_total 3\n" in text
        hist_lines = [l for l in text.splitlines()
                      if l.startswith("repro_latency_response_ms_")]
        # cumulative buckets must be monotone and end at +Inf == count
        buckets = [l for l in hist_lines if "_bucket{" in l]
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith(
            'repro_latency_response_ms_bucket{le="+Inf"}')
        assert counts[-1] == 3
        assert "repro_latency_response_ms_count 3" in text


class TestCli:
    def _write_payload(self, payload, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        return path

    def test_summarize(self, payload, tmp_path, capsys):
        path = self._write_payload(payload, tmp_path)
        assert obs_cli.main(["summarize", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counters"]["requests.total"] == 3

    def test_export_chrome_to_file(self, payload, tmp_path):
        path = self._write_payload(payload, tmp_path)
        out = tmp_path / "trace.json"
        assert obs_cli.main(["export", str(path), "--format",
                             "chrome", "-o", str(out)]) == 0
        obs_export.validate_chrome_trace(
            json.loads(out.read_text()))

    def test_export_every_format(self, payload, tmp_path, capsys):
        path = self._write_payload(payload, tmp_path)
        for fmt in ("summary", "csv", "prometheus", "chrome"):
            assert obs_cli.main(["export", str(path),
                                 "--format", fmt]) == 0
            assert capsys.readouterr().out

    def test_validate_good_and_bad(self, payload, tmp_path, capsys):
        trace = obs_export.to_chrome_trace(payload)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(trace))
        assert obs_cli.main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{}]}))
        assert obs_cli.main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestAdmissionCounters:
    def observed_payload(self, reference=False, **kw):
        """Play under obs; with ``reference``, on the scalar loop."""
        import numpy as np

        from repro import obs
        from repro.allocation.design_theoretic import (
            DesignTheoreticAllocation,
        )
        from repro.flash.driver import OnlineTracePlayer
        from tests.support.builders import reference_play

        alloc = DesignTheoreticAllocation.from_parameters(9, 3)
        rng = np.random.default_rng(11)
        arrivals = sorted(rng.uniform(0, 1.0, 60).tolist())
        buckets = [int(b) for b in rng.integers(0, alloc.n_buckets, 60)]
        with obs.observed() as session:
            player = OnlineTracePlayer(alloc, 0.133, **kw)
            if reference:
                reference_play(player, arrivals, buckets)
            else:
                player.play(arrivals, buckets)
        return session.to_payload()

    def test_admission_counters_surface_in_prometheus(self):
        payload = self.observed_payload()
        counters = payload["request"]["metrics"]["counters"]
        assert counters["admission.admitted"] >= 1
        assert counters["admission.delayed"] >= 1
        text = obs_export.to_prometheus(payload)
        assert "admission_admitted" in text
        assert "admission_delayed" in text

    def test_admission_counters_engine_identical(self):
        from repro.obs.session import request_sections

        vec = self.observed_payload()
        ref = self.observed_payload(reference=True)
        assert request_sections(vec)["metrics"]["counters"] == \
            request_sections(ref)["metrics"]["counters"]
