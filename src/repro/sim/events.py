"""Event primitives for the DES kernel.

An :class:`Event` is the unit of synchronisation: processes yield events
and are resumed when the event *fires*.  Events carry a value (delivered
to the waiting process) or an exception (raised inside it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

__all__ = ["Event", "Timeout", "TimeoutUntil", "AllOf", "AnyOf",
           "Interrupted"]

_PENDING = object()


class Interrupted(Exception):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* -> *triggered* (scheduled on the event queue)
    -> *processed* (callbacks ran).  An event may succeed with a value
    or fail with an exception; failing delivers the exception into every
    waiting process.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise RuntimeError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded or failed with."""
        if self._value is _PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env._schedule_event(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.

        If the event was already processed the callback runs
        immediately (this makes waiting on completed events safe).
        """
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        # the address only labels a debugging repr, never sim state
        # repro: allow[builtin-hash]
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        env._schedule_event(self, delay=delay)

    # A Timeout is triggered at construction; succeed/fail are invalid.
    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events cannot be re-triggered")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events cannot be re-triggered")


class TimeoutUntil(Event):
    """An event that fires at the *absolute* simulation time ``when``.

    Unlike ``Timeout(when - env.now)``, the wake-up time is stored
    exactly: computing a relative delay and re-adding it to the clock
    accumulates floating-point round-off (``now + (t - now) != t`` in
    general), which would make closed-form response-time computations
    disagree with the event loop by ulps.  Trace players schedule
    arrivals and deferred issues with this event so simulated
    timestamps equal the trace floats bit-for-bit.
    """

    def __init__(self, env: "Environment", when: float, value: Any = None):
        if when < env.now:
            raise ValueError(f"target time {when!r} is in the past "
                             f"(now={env.now!r})")
        super().__init__(env)
        self.when = when
        self._value = value
        self._ok = True
        env._schedule_event(self, at=when)

    # Triggered at construction, like Timeout.
    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("TimeoutUntil events cannot be re-triggered")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("TimeoutUntil events cannot be re-triggered")


class _Condition(Event):
    """Base for AllOf/AnyOf composite events.

    Completion is tracked through *processed* events (callbacks run),
    not merely triggered ones -- a Timeout is triggered at construction
    but only completes when the clock reaches it.
    """

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("all events must share one Environment")
        for ev in self.events:
            # add_callback invokes immediately for processed events.
            ev.add_callback(self._on_event_done)
        self._check_empty()

    def _check_empty(self) -> None:
        if not self.events and not self.triggered:
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {ev: ev.value for ev in self.events if ev.triggered and ev.ok}

    def _on_event_done(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* constituent events have fired.

    Succeeds with a dict mapping each event to its value.  Fails as soon
    as any constituent fails.
    """

    def _on_event_done(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        if all(e.processed for e in self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when *any* constituent event fires."""

    def _on_event_done(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed(self._collect())
