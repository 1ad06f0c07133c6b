"""The paper's primary contribution: the replication-based QoS framework.

* :mod:`~repro.core.guarantees` -- the design-theoretic guarantee
  algebra ``S = (c-1)M^2 + cM`` (§II-B2, §III-A),
* :mod:`~repro.core.admission` -- deterministic (§III-A1) and
  statistical (§III-B2) admission control,
* :mod:`~repro.core.sampling` -- sampling estimator of the optimal
  retrieval probabilities ``P_k`` (§III-B1, Figure 4),
* :mod:`~repro.core.applications` -- the application / period request
  model of Table I,
* :mod:`~repro.core.qos` -- the ``QoSFlashArray`` facade wiring design,
  allocation, retrieval, admission and the flash simulator together.
"""

from repro.core.admission import (
    AdmissionDecision,
    DeterministicAdmission,
    StatisticalAdmission,
)
from repro.core.applications import Application, BlockRequest, table1_scenario
from repro.core.guarantees import (
    guarantee_capacity,
    max_admissible,
    required_accesses,
)
from repro.core.adaptive import AdaptiveEpsilonController
from repro.core.monitor import SLAMonitor
from repro.core.planner import SLO, Plan, plan_configurations
from repro.core.qos import QoSFlashArray, QoSReport
from repro.core.sampling import OptimalRetrievalSampler

__all__ = [
    "AdaptiveEpsilonController",
    "AdmissionDecision",
    "Application",
    "BlockRequest",
    "DeterministicAdmission",
    "OptimalRetrievalSampler",
    "Plan",
    "QoSFlashArray",
    "QoSReport",
    "SLAMonitor",
    "SLO",
    "StatisticalAdmission",
    "guarantee_capacity",
    "max_admissible",
    "plan_configurations",
    "required_accesses",
    "table1_scenario",
]
