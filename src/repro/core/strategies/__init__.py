"""Recombination strategies: placement, additions, deletions, repartition."""

from .adaptive import CompositeStrategy
from .assignment import (
    CutEdgePS,
    LDGPS,
    LeastLoadedPS,
    NeighborMajorityPS,
    RoundRobinPS,
)
from .base import DynamicStrategy, ProcessorAssignmentStrategy
from .edge_addition import EdgeAdditionStrategy, apply_edge_addition
from .edge_deletion import EdgeDeletionStrategy, apply_edge_deletion
from .policy import (
    FixedPolicy,
    PolicyDecision,
    PolicyDrivenStrategy,
    SignalDrivenPolicy,
    StrategyPolicy,
    ThresholdPolicy,
)
from .rebalance import RebalancedStrategy, apply_migration, plan_rebalance
from .registry import (
    POLICIES,
    STRATEGIES,
    PolicyFactory,
    StrategyFactory,
    make_policy,
    make_strategy,
    register,
    register_policy,
)
from .repartition import RepartitionStrategy
from .vertex_addition import VertexAdditionStrategy
from .vertex_deletion import VertexDeletionStrategy, apply_vertex_deletion

__all__ = [
    "STRATEGIES",
    "StrategyFactory",
    "register",
    "make_strategy",
    "POLICIES",
    "PolicyFactory",
    "register_policy",
    "make_policy",
    "StrategyPolicy",
    "PolicyDecision",
    "FixedPolicy",
    "ThresholdPolicy",
    "SignalDrivenPolicy",
    "PolicyDrivenStrategy",
    "ProcessorAssignmentStrategy",
    "DynamicStrategy",
    "RoundRobinPS",
    "CutEdgePS",
    "LDGPS",
    "LeastLoadedPS",
    "NeighborMajorityPS",
    "VertexAdditionStrategy",
    "EdgeAdditionStrategy",
    "apply_edge_addition",
    "EdgeDeletionStrategy",
    "apply_edge_deletion",
    "VertexDeletionStrategy",
    "apply_vertex_deletion",
    "RepartitionStrategy",
    "RebalancedStrategy",
    "plan_rebalance",
    "apply_migration",
    "CompositeStrategy",
]
