"""Online SLA compliance monitoring.

Operations tooling on top of the framework: a :class:`SLAMonitor`
consumes completed requests as they happen, keeps a sliding window of
response times, and reports compliance against the deterministic
guarantee -- so an operator can tell *when* a deployment started
violating its SLO and how badly, not just whether the whole run passed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro import obs

__all__ = ["SLAMonitor", "SLAViolation"]


@dataclass(frozen=True)
class SLAViolation:
    """One recorded guarantee violation."""

    at_ms: float
    response_ms: float
    guarantee_ms: float

    @property
    def excess_ms(self) -> float:
        return self.response_ms - self.guarantee_ms


class SLAMonitor:
    """Sliding-window compliance tracker.

    Parameters
    ----------
    guarantee_ms:
        The response-time guarantee in force.
    window:
        Number of most-recent requests in the compliance window.
    target_compliance:
        The SLO: fraction of windowed requests that must meet the
        guarantee (1.0 = deterministic, 0.999 = "three nines").
    """

    def __init__(self, guarantee_ms: float, window: int = 1000,
                 target_compliance: float = 1.0):
        if guarantee_ms <= 0:
            raise ValueError("guarantee_ms must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0 < target_compliance <= 1:
            raise ValueError("target_compliance must be in (0, 1]")
        self.guarantee_ms = guarantee_ms
        self.window = window
        self.target_compliance = target_compliance
        self._window: Deque[bool] = deque(maxlen=window)
        self._responses: Deque[float] = deque(maxlen=window)
        self.violations: List[SLAViolation] = []
        self.n_observed = 0
        self.n_violations = 0

    # -- feeding ---------------------------------------------------------
    def observe(self, completed_at_ms: float,
                response_ms: float) -> None:
        """Record one completed request."""
        ok = response_ms <= self.guarantee_ms + 1e-9
        if obs.ACTIVE:
            obs.SESSION.on_sla_observation(ok)
        self._window.append(ok)
        self._responses.append(response_ms)
        self.n_observed += 1
        if not ok:
            self.n_violations += 1
            self.violations.append(SLAViolation(
                at_ms=completed_at_ms, response_ms=response_ms,
                guarantee_ms=self.guarantee_ms))

    def observe_report(self, report) -> None:
        """Feed every request of a :class:`repro.core.qos.QoSReport`."""
        played = report.requests
        order = np.argsort(played.completed, kind="stable")
        for completed, response in zip(played.completed[order].tolist(),
                                       played.response_ms[order].tolist()):
            self.observe(completed, response)

    # -- state -------------------------------------------------------------
    @property
    def windowed_compliance(self) -> float:
        """Fraction of the current window meeting the guarantee."""
        if not self._window:
            return 1.0
        return sum(self._window) / len(self._window)

    @property
    def lifetime_compliance(self) -> float:
        if self.n_observed == 0:
            return 1.0
        return 1.0 - self.n_violations / self.n_observed

    @property
    def in_compliance(self) -> bool:
        """Is the current window meeting the SLO target?"""
        return self.windowed_compliance >= self.target_compliance

    def windowed_percentile(self, q: float) -> float:
        """Response percentile over the current window."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._responses:
            return 0.0
        return float(np.percentile(np.fromiter(self._responses,
                                               dtype=np.float64), q))

    def first_violation(self) -> Optional[SLAViolation]:
        return self.violations[0] if self.violations else None

    def summary(self) -> dict:
        return {
            "observed": self.n_observed,
            "violations": self.n_violations,
            "lifetime_compliance": self.lifetime_compliance,
            "windowed_compliance": self.windowed_compliance,
            "in_compliance": self.in_compliance,
            "p99_ms": self.windowed_percentile(99),
        }
