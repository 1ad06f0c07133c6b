"""Request-lifecycle spans, recorded in simulation time.

A span is one phase of a request's life -- admission wait, module
queueing, service -- with start/end in simulated milliseconds.  Spans
are *derived from the request timestamps* after playback (both engines
produce the same played columns with bit-identical floats), so the
span stream is engine-independent by construction.  The DES
additionally feeds live open/close counters from the array's
issue/complete hooks; the ``repro.check`` obs probe asserts they
balance at drain time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Span", "Tracer"]

#: keep at most this many spans by default; past the cap we count
#: drops instead of growing without bound (the histograms/counters
#: remain exact -- only the per-request event stream is truncated)
DEFAULT_MAX_SPANS = 100_000


@dataclass(frozen=True)
class Span:
    """One lifecycle phase in simulation time (milliseconds)."""

    name: str
    cat: str
    start_ms: float
    end_ms: float
    #: device index (Chrome trace thread id); -1 = no single device
    #: (e.g. a replicated write master)
    tid: int = -1
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def dur_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "cat": self.cat,
                "start_ms": self.start_ms, "end_ms": self.end_ms,
                "tid": self.tid, "args": [list(kv) for kv in self.args]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(name=str(data["name"]), cat=str(data["cat"]),
                   start_ms=float(data["start_ms"]),  # type: ignore[arg-type]
                   end_ms=float(data["end_ms"]),  # type: ignore[arg-type]
                   tid=int(data.get("tid", -1)),  # type: ignore[arg-type]
                   args=tuple((str(k), v) for k, v in
                              data.get("args", ())))  # type: ignore[union-attr]


class Tracer:
    """Bounded span store plus live open/close accounting.

    ``add`` collects derived spans (capped at ``max_spans``, excess is
    counted in :attr:`dropped`); :meth:`open_live`/:meth:`close_live`
    are the DES-side hooks -- the array bumps them when a request is
    issued to / completed by a module, so a drained simulation must
    end with ``live_opened == live_closed``.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        if max_spans < 0:
            raise ValueError("max_spans must be >= 0")
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self.live_opened = 0
        self.live_closed = 0

    def add(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    def open_live(self) -> None:
        self.live_opened += 1

    def close_live(self) -> None:
        self.live_closed += 1

    @property
    def live_open(self) -> int:
        """Spans currently open on the DES side (0 after drain)."""
        return self.live_opened - self.live_closed

    def emit_request(self, arrival: float, bucket: int, device: int,
                     issued: float, started: float, completed: float,
                     interval: int, index: int, delayed: bool) -> None:
        """Derive lifecycle spans for one played request.

        Works purely off the played timestamps, which both playback
        engines produce as bit-identical floats:

        * ``admission`` -- arrival to issue, when admission delayed the
          request (budget overflow or a deterministic-QoS conflict);
        * ``queue`` -- issue to service start, when the request waited
          in a module queue (within-guarantee queueing);
        * ``service`` -- service start to completion on its device;
        * ``write`` -- issue to completion for replicated write
          masters, which have no single device/service window.
        """
        args = (("index", index), ("interval", interval),
                ("bucket", bucket))
        if delayed and issued > arrival:
            self.add(Span("admission", "admission", arrival, issued,
                          tid=device, args=args))
        if device >= 0 and started >= issued:
            if started > issued:
                self.add(Span("queue", "queue", issued, started,
                              tid=device, args=args))
            self.add(Span("service", "service", started, completed,
                          tid=device, args=args))
        else:
            # replicated write master: completion is the slowest
            # replica; per-device detail lives in the module series
            self.add(Span("write", "service", issued, completed,
                          tid=device, args=args))

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"max_spans": self.max_spans,
                "dropped": self.dropped,
                "live_opened": self.live_opened,
                "live_closed": self.live_closed,
                "spans": [s.to_dict() for s in self.spans]}

    def merge_dict(self, data: Dict[str, object]) -> None:
        self.dropped += int(data.get("dropped", 0))  # type: ignore[arg-type]
        self.live_opened += int(data.get("live_opened", 0))  # type: ignore[arg-type]
        self.live_closed += int(data.get("live_closed", 0))  # type: ignore[arg-type]
        for payload in data.get("spans", ()):  # type: ignore[union-attr]
            self.add(Span.from_dict(payload))
