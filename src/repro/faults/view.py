"""Per-module fault view: what one flash module consults while serving.

:class:`repro.flash.module.FlashModule` stays ignorant of schedules and
arrays; it duck-calls this narrow adapter at service time.  The view
also carries the module's monotone read-attempt counter, which indexes
the schedule's deterministic per-operation error draws -- attempt
``k`` on module ``m`` always sees the same uniform, whatever the
interleaving of the event loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import FaultSchedule, RetryPolicy

__all__ = ["ModuleFaultView"]

_INF = float("inf")


class ModuleFaultView:
    """The slice of a :class:`~repro.faults.models.FaultSchedule` one
    module sees."""

    def __init__(self, schedule: "FaultSchedule", module_id: int):
        self.schedule = schedule
        self.module_id = module_id
        self._events = schedule.events_for(module_id)
        #: monotone read-attempt counter (error-draw index)
        self._attempts = 0

    @property
    def retry(self) -> "RetryPolicy":
        return self.schedule.retry

    @property
    def quiet(self) -> bool:
        """True when no event ever touches this module."""
        return not self._events

    def dead_at(self, t: float) -> bool:
        return self.schedule.is_dead(self.module_id, t)

    def available_from(self, t: float) -> float:
        """Earliest service instant ``>= t`` (``inf`` once dead)."""
        return self.schedule.available_from(self.module_id, t)

    def slowdown(self, t: float) -> float:
        return self.schedule.slowdown(self.module_id, t)

    def error_prob(self, t: float) -> float:
        return self.schedule.error_prob(self.module_id, t)

    def next_error_draw(self) -> float:
        """Consume one deterministic uniform for a read attempt."""
        draw = self.schedule.read_error_draw(self.module_id,
                                             self._attempts)
        self._attempts += 1
        return draw
