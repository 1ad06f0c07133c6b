"""The combined retrieval policy of paper §III-C.

"Our retrieval algorithm first checks the retrieval optimality using
the design-theoretic retrieval; if the access amount is greater than
the optimal (``ceil(b/N)``), we solve the maximum flow problem."

Design-theoretic retrieval is ``O(b)``, max-flow ``O(b^3)``; the policy
pays the expensive path only when the cheap one is provably suboptimal.
"""

from __future__ import annotations

from typing import Sequence

from repro.check import sanitizers
from repro.retrieval.design_theoretic import design_theoretic_retrieval
from repro.retrieval.maxflow import maxflow_retrieval
from repro.retrieval.schedule import RetrievalSchedule

__all__ = ["combined_retrieval"]


def combined_retrieval(candidates: Sequence[Sequence[int]],
                       n_devices: int) -> RetrievalSchedule:
    """DTR first; exact max-flow fallback when DTR misses the optimum.

    The returned schedule is always access-optimal.  While sanitizers
    are active every returned schedule is checked against the
    candidate sets (the fallback checks its own).
    """
    schedule = design_theoretic_retrieval(candidates, n_devices)
    if not schedule.is_optimal:
        return maxflow_retrieval(candidates, n_devices)
    if sanitizers.ACTIVE:
        sanitizers.check_schedule(candidates, list(schedule.assignment),
                                  schedule.accesses)
    return schedule
