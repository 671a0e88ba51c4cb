"""Engine configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import ConfigurationError
from ..model.cost import DEFAULT_COST, CostModel
from ..model.logp import DEFAULT_LOGP, LogPParams
from ..model.schedules import CommSchedule, SequentialAllToAll
from ..partition.base import Partitioner
from ..partition.multilevel import MultilevelPartitioner

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.chaos import FaultPlan
    from ..runtime.health import HealthPolicy

__all__ = ["AnytimeConfig", "ResilienceConfig"]

#: valid crash-recovery policy names; literal duplicate of
#: runtime.chaos.RECOVERY_POLICIES — config must stay importable
#: without pulling in the runtime package
_RECOVERY_POLICIES = ("warm", "checkpoint", "redistribute", "escalate")


@dataclass
class ResilienceConfig:
    """The fault-tolerance knobs, grouped.

    Attributes
    ----------
    recovery:
        Crash-recovery policy for fault-injected runs (``"warm"`` |
        ``"checkpoint"`` | ``"redistribute"`` | ``"escalate"``); see
        :mod:`repro.runtime.supervisor`.  ``"escalate"`` climbs the
        per-rank ladder warm -> checkpoint -> redistribute and degrades
        gracefully when health budgets run out.
    checkpoint_interval:
        RC steps between the supervisor's in-memory checkpoints (used
        by the ``"checkpoint"`` and ``"escalate"`` policies).
    fault_plan:
        Optional :class:`~repro.runtime.chaos.FaultPlan` applied to
        every :meth:`~repro.core.engine.AnytimeAnywhereCloseness.run`
        call that does not pass its own — deterministic fault injection
        becomes part of the configuration instead of a per-call kwarg.
    """

    recovery: str = "warm"
    checkpoint_interval: int = 8
    fault_plan: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        if self.recovery not in _RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {self.recovery!r}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")


@dataclass
class AnytimeConfig:
    """Configuration for :class:`~repro.core.engine.AnytimeAnywhereCloseness`.

    Attributes
    ----------
    nprocs:
        Number of simulated processors (the paper uses 16).
    partitioner:
        Cut-minimizing partitioner for the DD phase (and Repartition-S);
        defaults to the multilevel METIS-style partitioner.
    cutedge_partitioner:
        Serial partitioner CutEdge-PS applies to the new-vertex graph;
        defaults to a fresh multilevel partitioner (the paper uses serial
        METIS here).
    cost / logp / schedule:
        Performance models (see :mod:`repro.model`).
    max_rc_steps:
        Safety bound on recombination steps before
        :class:`~repro.errors.ConvergenceError` is raised.
    repartition_threshold:
        Fraction of |V| above which ``strategy="adaptive"`` (the
        :class:`~repro.core.strategies.policy.ThresholdPolicy`) switches
        from CutEdge-PS vertex addition to Repartition-S.
    wf_improved:
        Use Wasserman–Faust-scaled closeness in snapshots/results.
    collect_snapshots:
        Record an anytime snapshot after every RC step.
    seed:
        Seed for partitioner randomness when defaults are constructed.
    resilience:
        Typed group of the fault-tolerance knobs
        (:class:`ResilienceConfig`: ``recovery``,
        ``checkpoint_interval``, ``fault_plan``).  Always populated
        after construction; defaults are built when omitted.
    health:
        Optional :class:`~repro.runtime.health.HealthPolicy` enabling the
        self-healing runtime for fault-injected runs: per-rank liveness
        tracking, deadline-driven straggler speculation, modeled retry
        backoff and graceful degradation.  ``None`` (the default) keeps
        the pre-health behavior, except that ``recovery="escalate"``
        builds a default policy internally.
    wire_format:
        Boundary-row encoding: ``"delta"`` (default) ships only the
        columns that improved since the last send on each channel, with
        an automatic dense fallback; ``"dense"`` ships full rows and is
        kept as the reference oracle.  Both converge to bitwise-identical
        closeness values; only the modeled wire traffic differs.
    backend:
        Where the per-rank compute kernels execute: ``"serial"`` (in the
        coordinating process, the default) or ``"process"`` (a
        persistent process pool with the DV / local-APSP matrices in
        shared memory).  Both are bitwise-identical in results, traces
        and modeled clocks; only wall-clock time differs.  The default
        honors the ``REPRO_BACKEND`` environment variable so whole test
        suites can be re-run under another backend without code changes.
    kernel_tier:
        Accepted as ``"numpy"`` (the default) or ``"scipy"``; both run
        the one kernel set of :mod:`repro.runtime.kernels`, and any
        other name is a :class:`~repro.errors.ConfigurationError`.
    observers:
        Observability specs handed to :func:`repro.obs.build_hub` —
        exporter strings (``"jsonl:PATH"``, ``"perfetto:PATH"``,
        ``"prom:PATH"``), the keywords ``"metrics"`` (in-memory metrics
        registry only) / ``"convergence"`` (default per-superstep
        quality probe), or ready-made ``Observer`` /
        ``ConvergenceProbe`` instances.  Empty (the default) disables
        all instrumentation at zero cost.  Enabling observers never
        changes results: closeness, modeled clock, wire totals and
        fault accounting stay bitwise identical.
    """

    nprocs: int = 16
    partitioner: Optional[Partitioner] = None
    cutedge_partitioner: Optional[Partitioner] = None
    cost: CostModel = DEFAULT_COST
    logp: LogPParams = DEFAULT_LOGP
    schedule: Optional[CommSchedule] = None
    max_rc_steps: int = 10_000
    repartition_threshold: float = 0.05
    wf_improved: bool = False
    collect_snapshots: bool = True
    seed: int = 0
    #: relative processor speeds for heterogeneous clusters (len == nprocs);
    #: None = homogeneous.  Pair with a MultilevelPartitioner whose
    #: target_weights match for speed-proportional blocks.
    worker_speeds: Optional[List[float]] = None
    resilience: Optional[ResilienceConfig] = None
    health: Optional["HealthPolicy"] = None
    wire_format: str = "delta"
    backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_BACKEND", "serial")
    )
    # read only by benchmarks/e2e (static-pool passes "scipy"), which
    # this tree may not edit; goes with the next [benchmark] PR
    kernel_tier: str = "numpy"
    observers: Sequence[object] = ()

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ConfigurationError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.max_rc_steps < 1:
            raise ConfigurationError("max_rc_steps must be >= 1")
        if not 0.0 <= self.repartition_threshold <= 1.0:
            raise ConfigurationError(
                "repartition_threshold must be a fraction in [0, 1]"
            )
        if self.resilience is None:
            self.resilience = ResilienceConfig()
        if self.health is not None:
            # lazy import: the runtime package is only pulled in when the
            # self-healing features are actually requested
            from ..runtime.health import HealthPolicy

            if not isinstance(self.health, HealthPolicy):
                raise ConfigurationError(
                    "health must be a repro.runtime.health.HealthPolicy,"
                    f" got {type(self.health).__name__}"
                )
        if self.wire_format not in ("dense", "delta"):
            raise ConfigurationError(
                f"wire_format must be 'dense' or 'delta',"
                f" got {self.wire_format!r}"
            )
        # literal duplicate of runtime.backends.available_backends():
        # config must stay importable without pulling in the runtime
        if self.backend not in ("serial", "process"):
            raise ConfigurationError(
                f"backend must be 'serial' or 'process',"
                f" got {self.backend!r}"
            )
        if self.kernel_tier not in ("numpy", "scipy"):
            raise ConfigurationError(
                f"kernel_tier must be 'numpy' or 'scipy',"
                f" got {self.kernel_tier!r}"
            )
        for spec in self.observers:
            if not isinstance(spec, str):
                continue  # Observer / ConvergenceProbe instances
            if spec in ("metrics", "convergence"):
                continue
            # literal duplicate of obs.exporters formats: config must
            # stay importable without pulling in repro.obs
            fmt, sep, path = spec.partition(":")
            if not sep or not path or fmt.strip().lower() not in (
                "jsonl", "perfetto", "prom", "prometheus"
            ):
                raise ConfigurationError(
                    f"invalid observer spec {spec!r}; expected"
                    " 'metrics', 'convergence', or FORMAT:PATH with"
                    " FORMAT in ('jsonl', 'perfetto', 'prom')"
                )
        self.observers = tuple(self.observers)
        if self.worker_speeds is not None:
            if len(self.worker_speeds) != self.nprocs:
                raise ConfigurationError(
                    "worker_speeds must have one entry per processor"
                )
            if any(sp <= 0 for sp in self.worker_speeds):
                raise ConfigurationError("worker speeds must be positive")
        if self.partitioner is None:
            self.partitioner = MultilevelPartitioner(seed=self.seed)
        if self.cutedge_partitioner is None:
            self.cutedge_partitioner = MultilevelPartitioner(seed=self.seed + 1)
        if self.schedule is None:
            self.schedule = SequentialAllToAll()
