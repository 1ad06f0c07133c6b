"""Live adaptive-replication controller (the paper's loop, online).

Composes the existing pieces -- streaming playback
(:class:`repro.flash.driver.OnlineStreamSession`), FIM mining and
matching, admission control and the fault layer -- into one
long-running service that mines patterns per interval and
re-replicates between intervals *without stopping the traffic*.  See
:mod:`repro.controller.controller` for the loop,
:mod:`repro.controller.boundary` for the per-array boundary step
(mine the interval just fed, plan, re-map) that the sharded cluster
shares, :mod:`repro.controller.planner` for budgeted fault-aware
migration, :mod:`repro.controller.strategy` for the pluggable
placement policies, and ``docs/controller.md`` for the determinism
contract.
"""

from repro.controller.boundary import BoundaryStep
from repro.controller.controller import (
    AuditRecord,
    ControllerConfig,
    ControllerReport,
    ReplicationController,
)
from repro.controller.planner import (
    PlacementDelta,
    ReplicationPlan,
    ReplicationPlanner,
    pair_support_by_block,
)
from repro.controller.strategy import (
    FIMReplan,
    PlacementStrategy,
    StaticPlacement,
)

__all__ = [
    "AuditRecord",
    "BoundaryStep",
    "ControllerConfig",
    "ControllerReport",
    "FIMReplan",
    "PlacementDelta",
    "PlacementStrategy",
    "ReplicationController",
    "ReplicationPlan",
    "ReplicationPlanner",
    "StaticPlacement",
    "pair_support_by_block",
]
