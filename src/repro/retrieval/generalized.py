"""Generalized optimal response-time retrieval.

The paper's §III-C cites the authors' follow-up work ([14] Altiparmak &
Tosun, *Generalized optimal response time retrieval of replicated data
from storage arrays*) which drops two idealisations of the basic
max-flow formulation: devices may have **heterogeneous service times**
(e.g. a mixed array, or flash modules with different page timings) and
**non-zero initial busy times** (in-progress work).

Formulation: for a candidate makespan ``theta``, device ``d`` can serve

    ``cap_d(theta) = floor((theta - busy_d) / service_d)``

requests.  A schedule finishing by ``theta`` exists iff the bipartite
assignment with those capacities covers every request.  The optimum is
found by searching ``theta`` over the finite set of *event times*
``busy_d + k * service_d`` -- the only values where any ``cap_d``
changes -- via binary search, with a max-flow feasibility probe per
step.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.graph.matching import bounded_degree_assignment
from repro.retrieval.schedule import RetrievalSchedule

__all__ = ["generalized_retrieval", "GeneralizedSchedule"]


class GeneralizedSchedule(RetrievalSchedule):
    """A schedule plus its makespan under heterogeneous timing."""

    def __init__(self, assignment: Tuple[int, ...], n_devices: int,
                 makespan: float,
                 completion: Tuple[float, ...]):
        super().__init__(assignment=assignment, n_devices=n_devices)
        object.__setattr__(self, "makespan", makespan)
        object.__setattr__(self, "completion", completion)


def _capacities(theta: float, busy: Sequence[float],
                service: Sequence[float]) -> List[int]:
    caps = []
    for b, s in zip(busy, service):
        caps.append(max(0, int((theta - b) / s + 1e-9)))
    return caps


def generalized_retrieval(
    candidates: Sequence[Sequence[int]],
    n_devices: int,
    service_ms: Sequence[float],
    busy_ms: Optional[Sequence[float]] = None,
) -> GeneralizedSchedule:
    """Minimum-makespan schedule on heterogeneous, busy devices.

    Parameters
    ----------
    candidates:
        Per-request replica device lists.
    n_devices:
        Array size.
    service_ms:
        Per-device service time for one request (all positive).
    busy_ms:
        Per-device time until the device is free (default all 0).

    Returns
    -------
    GeneralizedSchedule
        Assignment, the optimal makespan, and each request's
        completion time under in-order service on its device.
    """
    if len(service_ms) != n_devices:
        raise ValueError("service_ms must have one entry per device")
    if any(s <= 0 for s in service_ms):
        raise ValueError("service times must be positive")
    busy = list(busy_ms) if busy_ms is not None else [0.0] * n_devices
    if len(busy) != n_devices:
        raise ValueError("busy_ms must have one entry per device")
    if any(b < 0 for b in busy):
        raise ValueError("busy times must be >= 0")

    b = len(candidates)
    if b == 0:
        return GeneralizedSchedule((), n_devices, 0.0, ())

    # Candidate makespans: busy_d + k * service_d for k = 1..b, but only
    # for devices that appear among the candidates.
    used = sorted({d for cands in candidates for d in cands})
    thetas = sorted({busy[d] + k * service_ms[d]
                     for d in used for k in range(1, b + 1)})
    lo, hi = 0, len(thetas) - 1
    best: Optional[Tuple[float, List[int]]] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        theta = thetas[mid]
        caps = _capacities(theta, busy, service_ms)
        assignment = bounded_degree_assignment(candidates, n_devices,
                                               caps)
        if assignment is not None:
            best = (theta, assignment)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise RuntimeError("no feasible schedule (empty candidates?)")
    theta, assignment = best

    # Completion times: requests on a device finish back-to-back after
    # its busy time, in assignment order.
    next_slot = list(busy)
    completion = []
    for d in assignment:
        next_slot[d] += service_ms[d]
        completion.append(next_slot[d])
    return GeneralizedSchedule(tuple(assignment), n_devices, theta,
                               tuple(completion))
