"""The adaptive statistical controller on the vector admission kernel.

``controller_exchange``'s configuration (ε = 0.05, with the adaptive
ε loop targeting 5% delayed requests) runs its session on the
vector kernel to the end, plays the same rows as the scalar reference
loop, and writes most rows by column rather than one
:meth:`repro.flash.played.PlayedLog.add` each.
"""

from repro.controller import ControllerConfig, ReplicationController
from repro.flash.driver import OnlineTracePlayer
from repro.flash.played import PlayedLog
from repro.traces import exchange_like_trace


def _run(monkeypatch, reference):
    sessions = []
    session = OnlineTracePlayer.session

    def opened(player):
        fresh = session(player)
        if reference:
            # the scalar reference: demoted before its first feed
            fresh._demote("reference")
        sessions.append(fresh)
        return fresh

    monkeypatch.setattr(OnlineTracePlayer, "session", opened)
    parts = exchange_like_trace(scale=1.0, seed=0, n_intervals=8)
    out = ReplicationController(ControllerConfig(
        n_devices=9, epsilon=0.05, adapt_target_delayed_pct=5.0)).run(parts)
    (played,) = sessions
    return played, out.report.requests, sum(len(p) for p in parts)


def test_adaptive_statistical_session_stays_on_the_kernel(monkeypatch):
    adds = []
    add = PlayedLog.add

    def counting_add(log, *args, **kwargs):
        adds.append(1)
        return add(log, *args, **kwargs)

    monkeypatch.setattr(PlayedLog, "add", counting_add)
    session, rows, n = _run(monkeypatch, reference=False)
    assert session.admission_kernel == "vector"
    assert session.admission_fallback_reason == ""
    assert len(rows) == n
    assert len(adds) <= 0.15 * n, len(adds)
    adds.clear()
    reference, ref_rows, _ = _run(monkeypatch, reference=True)
    assert reference.admission_kernel == "scalar"
    assert len(adds) == n
    assert rows.data.tobytes() == ref_rows.data.tobytes()
