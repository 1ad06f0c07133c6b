"""Reference linear-scan fault queries: the oracle for the change-point
tables behind :meth:`repro.faults.FaultSchedule.available_from`,
:meth:`~repro.faults.FaultSchedule.slowdown` and
:meth:`~repro.faults.FaultSchedule.error_prob`.

Each query walks every event of the module and asks
:meth:`~repro.faults.FaultEvent.active_at` -- the straightforward
definition the bisection tables must reproduce bit for bit (the slow
product in event order, the read-error maximum, the down-window chain
into a crash).  Self-contained on purpose: it reads only the public
``events_for`` and ``is_dead``, never the tables.
"""

_INF = float("inf")


def available_from(schedule, module: int, t: float) -> float:
    """Earliest time ``>= t`` at which ``module`` can serve."""
    u = t
    events = schedule.events_for(module)
    for _ in range(len(events) + 1):
        if schedule.is_dead(module, u):
            return _INF
        blocked = [e.end for e in events
                   if e.kind == "down" and e.active_at(u)]
        if not blocked:
            return u
        u = max(blocked)
    return u


def slowdown(schedule, module: int, t: float) -> float:
    """Product of the active ``slow`` factors, in event order."""
    factor = 1.0
    for e in schedule.events_for(module):
        if e.kind == "slow" and e.active_at(t):
            factor *= e.factor
    return factor


def error_prob(schedule, module: int, t: float) -> float:
    """Largest active read-error probability (0 when none)."""
    prob = 0.0
    for e in schedule.events_for(module):
        if e.kind == "read_error" and e.active_at(t):
            prob = max(prob, e.prob)
    return prob
