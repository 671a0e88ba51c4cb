"""Simulated distributed runtime: workers, cluster, tracing, messages."""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
)
from .chaos import (
    RECOVERY_POLICIES,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultStats,
)
from .cluster import Cluster
from .debug import check_cluster_invariants
from .health import HealthMonitor, HealthPolicy, HealthState
from .faults import (
    crash_and_recover,
    crash_worker,
    recover_worker,
    recover_worker_from_snapshot,
    redistribute_worker,
)
from .index import GlobalIndex
from .kernels import (
    KERNEL_TIERS,
    KernelTier,
    available_tiers,
    make_tier,
    register_tier,
)
from .message import (
    DeltaRows,
    delta_row_words,
    dense_row_words,
    dv_payload_words,
)
from .metrics import LoadSnapshot, snapshot_load
from .supervisor import Supervisor
from .tracing import PhaseRecord, Tracer
from .worker import Worker

__all__ = [
    "Cluster",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "available_backends",
    "make_backend",
    "KERNEL_TIERS",
    "KernelTier",
    "available_tiers",
    "make_tier",
    "register_tier",
    "check_cluster_invariants",
    "crash_worker",
    "recover_worker",
    "recover_worker_from_snapshot",
    "redistribute_worker",
    "crash_and_recover",
    "RECOVERY_POLICIES",
    "FaultEvent",
    "FaultStats",
    "FaultPlan",
    "FaultInjector",
    "HealthMonitor",
    "HealthPolicy",
    "HealthState",
    "Supervisor",
    "Worker",
    "GlobalIndex",
    "Tracer",
    "PhaseRecord",
    "DeltaRows",
    "dense_row_words",
    "delta_row_words",
    "dv_payload_words",
    "LoadSnapshot",
    "snapshot_load",
]
