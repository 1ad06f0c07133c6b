"""Unit tests for the shared experiment plumbing."""

import pytest

from repro.experiments.common import (
    ExperimentResult,
    play_original,
    play_workload,
    render_table,
)
from repro.traces.records import Trace


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456]])
        assert "0.1235" in text

    def test_title(self):
        text = render_table(["v"], [[1]], title="T")
        assert text.splitlines()[0] == "T"


class TestExperimentResult:
    def test_column_lookup(self):
        r = ExperimentResult("n", ["a", "b"], [[1, 2], [3, 4]])
        assert r.column("b") == [2, 4]
        with pytest.raises(ValueError):
            r.column("c")

    def test_render_includes_notes(self):
        r = ExperimentResult("n", ["a"], [[1]], notes="note here")
        assert "note here" in r.render()


class TestPlayHelpers:
    def _parts(self):
        a = Trace.from_arrays([0.0, 5.0, 10.0], [1, 2, 3],
                              device=[0, 1, 2])
        b = Trace.from_arrays([20.0, 25.0], [4, 5], device=[3, 4])
        return [a, b]

    def test_play_workload_modes(self):
        for mode in ("online", "batch"):
            run = play_workload(self._parts(), n_devices=9, mode=mode)
            assert run.report.overall.n_total == 5
            assert len(run.match_rates) == 2
            assert run.match_rates[0] == 0.0

    def test_play_workload_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            play_workload(self._parts(), n_devices=9, mode="bogus")

    def test_play_workload_rejects_unsorted_part(self):
        bad = Trace.from_arrays([0.0, 0.5, 0.2, 0.9], [1, 2, 3, 4])
        with pytest.raises(ValueError,
                           match=r"part 0: arrival 2 \(0\.2\) comes "
                                 r"before arrival 1 \(0\.5\)"):
            play_workload([bad], n_devices=9)

    def test_play_workload_checks_every_part_before_mining(
            self, monkeypatch):
        import repro.experiments.common as common

        def no_mining(*args, **kwargs):
            raise AssertionError("mined before validation")

        monkeypatch.setattr(common, "apriori", no_mining)
        parts = self._parts() + [
            Trace.from_arrays([30.0, float("nan")], [6, 7])]
        with pytest.raises(ValueError, match=r"part 2: arrival 1 is nan"):
            play_workload(parts, n_devices=9)

    def test_per_part_series_buckets_by_part(self):
        run = play_workload(self._parts(), n_devices=9)
        series = run.per_part_series()
        assert series.stats(0).n_total == 3
        assert series.stats(1).n_total == 2

    def test_play_original_uses_trace_devices(self):
        series = play_original(self._parts(), n_devices=9)
        merged = series.overall()
        assert merged.n_total == 5
        # sparse arrivals, distinct devices: bare service time each
        assert merged.max == pytest.approx(0.132507)


class TestResultJson:
    def test_roundtrip(self):
        r = ExperimentResult("name", ["a", "b"], [[1, "x"], [2.5, "y"]],
                             notes="n")
        back = ExperimentResult.from_json(r.to_json())
        assert back.name == r.name
        assert back.headers == r.headers
        assert back.rows == r.rows
        assert back.notes == r.notes

    def test_render_survives_roundtrip(self):
        r = ExperimentResult("name", ["a", "b"],
                             [[1, "x"], [2.5, "y"], [0.123456, ""]],
                             notes="shape note")
        back = ExperimentResult.from_json(r.to_json())
        assert back.render() == r.render()

    def test_render_survives_roundtrip_real_experiment(self):
        from repro.experiments import fig8

        r = fig8.run(scale=0.1, n_intervals=2)
        back = ExperimentResult.from_json(r.to_json())
        assert back.render() == r.render()

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ExperimentResult.from_json('{"name": "x"}')

    def test_notes_default(self):
        back = ExperimentResult.from_json(
            '{"name": "x", "headers": ["h"], "rows": [[1]]}')
        assert back.notes == ""
