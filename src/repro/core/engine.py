"""Public facade: the anytime-anywhere closeness centrality engine.

Typical use::

    from repro import AnytimeAnywhereCloseness, AnytimeConfig
    from repro.graph import barabasi_albert

    g = barabasi_albert(1000, 3, seed=7)
    engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=8))
    engine.setup()                       # DD + IA
    result = engine.run()                # RC to convergence
    result.closeness[42]                 # exact closeness of vertex 42

Dynamic analysis schedules change batches at RC steps::

    result = engine.run(changes=stream, strategy="cutedge")

Strategy names: ``"roundrobin"``, ``"cutedge"``, ``"leastloaded"``,
``"neighbormajority"`` (anywhere vertex addition with the corresponding
placement), ``"repartition"`` (Repartition-S), ``"adaptive"`` (CutEdge-PS
up to ``repartition_threshold * |V|`` new vertices, Repartition-S above),
``"auto"`` (chosen per batch by the signal-driven policy), or any
:class:`DynamicStrategy` instance.
``run_baseline_restart`` provides the paper's restart-from-scratch
comparison point.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..errors import ConfigurationError, WorkerError
from ..graph.changes import ChangeBatch, ChangeStream
from ..graph.graph import Graph
from ..obs import build_hub
from ..obs.observer import ObserverHub
from ..obs.registry import MetricsRegistry, SignalView
from ..runtime.cluster import Cluster
from ..runtime.metrics import LoadSnapshot, snapshot_load
from ..runtime.supervisor import Supervisor
from ..types import FloatArray, VertexId
from .config import AnytimeConfig, ResilienceConfig
from .recombination import run_recombination
from .snapshots import AnytimeSnapshot, take_snapshot
from .strategies import DynamicStrategy, make_strategy

logger = logging.getLogger("repro.engine")

__all__ = ["AnytimeAnywhereCloseness", "RunResult", "RunVerdict", "closeness"]


@dataclass
class RunResult:
    """Outcome of a (possibly dynamic) closeness computation."""

    closeness: Dict[VertexId, float]
    rc_steps: int
    modeled_seconds: float
    wall_seconds: float
    snapshots: List[AnytimeSnapshot] = field(default_factory=list)
    load: Optional[LoadSnapshot] = None
    restarts: int = 0
    #: False when the run was interrupted by an anytime budget before
    #: reaching a fixed point (results are still valid upper bounds)
    converged: bool = True
    # --- fault/recovery accounting (fault-injected runs only) ---------
    #: injected fault events: crashes + lost/duplicated messages +
    #: transient send failures + lost acks
    faults_injected: int = 0
    #: packet retransmissions forced by losses/failures/lost acks
    retries: int = 0
    #: crashes answered by the supervisor's recovery policy
    recoveries: int = 0
    #: modeled seconds spent inside recovery (the MTTR analogue)
    recovery_modeled_seconds: float = 0.0
    #: canonical fault event trace (byte-identical for identical plans)
    fault_events: List[str] = field(default_factory=list)
    # --- self-healing accounting (health-instrumented runs only) ------
    #: True when recovery budgets ran out and the run returned a partial
    #: result instead of raising (graceful anytime degradation)
    degraded: bool = False
    #: why the run degraded: ``"crash-budget"`` | ``"dead-fraction"`` |
    #: ``"retry-budget"`` (empty when not degraded)
    degraded_reason: str = ""
    #: quantified quality of a degraded partial result (finite-entry
    #: fraction, alive fraction, undelivered-row gauges); empty unless
    #: ``degraded``
    quality: Dict[str, float] = field(default_factory=dict)
    #: superstep deadlines missed by straggling ranks
    missed_deadlines: int = 0
    #: speculative kernel re-executions that beat the straggler
    speculations: int = 0
    #: modeled seconds of exponential retry backoff charged to the clock
    backoff_modeled_seconds: float = 0.0
    #: recoveries per escalation-ladder rung / recovery-policy label
    recoveries_by_rung: Dict[str, int] = field(default_factory=dict)
    #: mean modeled time-to-recovery per ladder rung (MTTR breakdown)
    mttr_by_rung: Dict[str, float] = field(default_factory=dict)
    # --- wire accounting ----------------------------------------------
    #: total words charged to the modeled wire across the whole run
    wire_words: int = 0
    #: words spent on boundary-DV exchange payloads specifically
    boundary_words: int = 0
    #: boundary rows shipped dense (full row)
    boundary_rows_dense: int = 0
    #: boundary rows shipped as sparse deltas
    boundary_rows_sparse: int = 0
    #: wire format the cluster ran with (``"dense"`` | ``"delta"``)
    wire_format: str = "delta"
    # --- convergence telemetry (probe-instrumented runs only) ---------
    #: last sample of each attached convergence probe, keyed by probe
    #: name — the quantified quality statement for anytime interruptions
    convergence: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # --- cost attribution ---------------------------------------------
    #: folded cost-attribution profile (:class:`repro.obs.profile.Profile`
    #: as a dict): modeled time per phase/rank, hot paths,
    #: coverage — populated on every run, observers on or off
    profile: Dict[str, Any] = field(default_factory=dict)

    @property
    def modeled_minutes(self) -> float:
        """The paper reports minutes; convenience accessor."""
        return self.modeled_seconds / 60.0

    def summary(self) -> Dict[str, object]:
        """Flat, JSON-ready digest of the run.

        One canonical place for reporting — the CLI and the benchmark
        tables both consume this instead of assembling ad-hoc dicts.
        """
        values = list(self.closeness.values())
        return {
            "num_vertices": len(values),
            "closeness_min": min(values) if values else 0.0,
            "closeness_max": max(values) if values else 0.0,
            "closeness_mean": (sum(values) / len(values)) if values else 0.0,
            "rc_steps": self.rc_steps,
            "modeled_seconds": self.modeled_seconds,
            "wall_seconds": self.wall_seconds,
            "converged": self.converged,
            "restarts": self.restarts,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "recovery_modeled_seconds": self.recovery_modeled_seconds,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "missed_deadlines": self.missed_deadlines,
            "speculations": self.speculations,
            "backoff_modeled_seconds": self.backoff_modeled_seconds,
            "wire_format": self.wire_format,
            "wire_words": self.wire_words,
            "boundary_words": self.boundary_words,
            "boundary_rows_dense": self.boundary_rows_dense,
            "boundary_rows_sparse": self.boundary_rows_sparse,
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """:meth:`summary` serialized as deterministic JSON."""
        return json.dumps(self.summary(), indent=indent, sort_keys=True)


@dataclass(frozen=True)
class RunVerdict:
    """Where :meth:`AnytimeAnywhereCloseness.advance` left the run: the
    steps taken and the convergence verdict, with no read-out."""

    rc_steps: int
    modeled_seconds: float
    converged: bool
    degraded: bool
    #: the run context the steps ran under (its fault, recovery and
    #: health accounting)
    context: Supervisor


class AnytimeAnywhereCloseness:
    """Anytime-anywhere distributed closeness centrality (the paper)."""

    def __init__(
        self, graph: Graph, config: Optional[AnytimeConfig] = None
    ) -> None:
        self.graph = graph.copy()
        self.config = config or AnytimeConfig()
        #: observability hub built from ``config.observers`` (the shared
        #: disabled NULL_HUB when no observers are configured)
        self.obs: ObserverHub = build_hub(tuple(self.config.observers))
        self.cluster: Optional[Cluster] = None
        self.snapshots: List[AnytimeSnapshot] = []
        self._next_step = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """DD + IA: partition the graph and compute local approximations."""
        cfg = self.config
        if self.cluster is not None:
            # re-setup (baseline restarts): release the old backend
            self.cluster.close()
        self.cluster = self._new_cluster()
        self.cluster.decompose(cfg.partitioner)
        self.cluster.run_initial_approximation()
        logger.debug(
            "setup complete: n=%d, P=%d, modeled=%.4fs",
            self.graph.num_vertices, cfg.nprocs,
            self.cluster.tracer.modeled_seconds,
        )
        self.snapshots = []
        self._next_step = 0
        if cfg.collect_snapshots:
            self.snapshots.append(
                take_snapshot(self.cluster, -1, wf_improved=cfg.wf_improved)
            )

    def _new_cluster(self) -> Cluster:
        """An empty cluster over ``self.graph``, wired to this engine's
        config and observers (``setup()`` and checkpoint restore)."""
        cfg = self.config
        return Cluster(
            self.graph,
            cfg.nprocs,
            cost=cfg.cost,
            logp=cfg.logp,
            schedule=cfg.schedule,
            worker_speeds=cfg.worker_speeds,
            wire_format=cfg.wire_format,
            backend=cfg.backend,
            obs=self.obs,
        )

    def _require_cluster(self) -> Cluster:
        if self.cluster is None:
            raise ConfigurationError("call setup() before running")
        return self.cluster

    # ------------------------------------------------------------------
    # strategy resolution
    # ------------------------------------------------------------------
    def resolve_strategy(
        self, strategy: Union[str, DynamicStrategy, None]
    ) -> Optional[DynamicStrategy]:
        if strategy is None or isinstance(strategy, DynamicStrategy):
            return strategy
        return make_strategy(strategy, self.config)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _resolve_resilience(
        self, resilience: Optional[ResilienceConfig]
    ) -> ResilienceConfig:
        """The run-level override, or the config's group."""
        if resilience is None:
            assert self.config.resilience is not None  # built when omitted
            return self.config.resilience
        if resilience.fault_plan is None and resilience != ResilienceConfig():
            raise ConfigurationError(
                "recovery/checkpoint_interval only apply with a fault_plan"
            )
        return resilience

    def run(
        self,
        *,
        changes: Optional[ChangeStream] = None,
        strategy: Union[str, DynamicStrategy, None] = "roundrobin",
        budget_modeled_seconds: Optional[float] = None,
        step_budget: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> RunResult:
        """Run the RC phase to convergence, absorbing ``changes``.

        May be called repeatedly: later calls resume at the next RC step
        (``changes`` steps are absolute across calls).

        ``strategy`` is a registered name, a
        :class:`DynamicStrategy` instance, or ``"auto"`` — the
        policy-driven adapter that picks a registered strategy per batch
        from live run signals (:class:`SignalDrivenPolicy`; pass a
        :class:`PolicyDrivenStrategy` instance for another policy).

        ``budget_modeled_seconds`` exercises the *anytime* property: the
        loop stops once the modeled clock advances by the budget, and the
        result carries ``converged=False`` with valid upper-bound
        estimates; call :meth:`run` again to continue refining.
        ``step_budget`` is the discrete analogue — run at most that many
        RC steps (the serve loop paces the engine with it).

        ``resilience`` overrides the config's
        :class:`~repro.core.config.ResilienceConfig` group for this call
        — its ``fault_plan`` runs the step under deterministic fault
        injection (see :class:`~repro.runtime.chaos.FaultPlan`): the
        always-sequenced boundary exchange loses, duplicates and retries
        packets as the plan dictates and puts its acks on the wire, and
        the run's :class:`~repro.runtime.supervisor.Supervisor` answers
        scheduled crashes with the group's
        ``recovery`` policy (``"warm"`` | ``"checkpoint"`` |
        ``"redistribute"`` | ``"escalate"``) and
        ``checkpoint_interval``.  The result carries the fault/recovery
        accounting and the canonical event trace.

        With ``config.health`` set (or ``recovery="escalate"``, which
        builds a default policy), the self-healing runtime engages:
        superstep deadlines feed the per-rank health state machine,
        straggling kernels are speculatively re-executed (bitwise-
        identical results, shorter modeled barrier), retransmissions pay
        seeded exponential backoff on the modeled clock, and exhausted
        budgets degrade the run gracefully — a partial
        ``RunResult(degraded=True)`` with a quantified quality statement
        instead of an exception.

        The steps are :meth:`advance`; the result adds the anytime read
        of closeness, the load and the cost-attribution profile.
        """
        verdict = self.advance(
            changes=changes,
            strategy=strategy,
            budget_modeled_seconds=budget_modeled_seconds,
            step_budget=step_budget,
            resilience=resilience,
        )
        cluster = self._require_cluster()
        run = verdict.context
        return RunResult(
            closeness=self.current_closeness(),
            rc_steps=verdict.rc_steps,
            modeled_seconds=verdict.modeled_seconds,
            wall_seconds=cluster.tracer.wall_seconds,
            snapshots=list(self.snapshots),
            load=snapshot_load(cluster),
            converged=verdict.converged,
            degraded=verdict.degraded,
            quality=self._partial_quality(run) if verdict.degraded else {},
            wire_words=cluster.tracer.total_words,
            boundary_words=cluster.boundary_words,
            boundary_rows_dense=cluster.boundary_rows_dense,
            boundary_rows_sparse=cluster.boundary_rows_sparse,
            wire_format=cluster.wire_format,
            convergence={
                name: dict(sample)
                for name, sample in self.obs.last_samples.items()
            },
            profile=self._fold_profile(cluster),
            **run.accounting(),
        )

    def advance(
        self,
        *,
        changes: Optional[ChangeStream] = None,
        strategy: Union[str, DynamicStrategy, None] = "roundrobin",
        budget_modeled_seconds: Optional[float] = None,
        step_budget: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> RunVerdict:
        """The RC steps of :meth:`run`, up to the convergence verdict.

        Same arguments and the same steps as :meth:`run` (strategy,
        run context, recombination loop, ``run`` span, snapshots when
        ``config.collect_snapshots``), but nothing is read out
        afterwards: the serve loop paces the engine with it and reads
        closeness only where it reports it.
        """
        cluster = self._require_cluster()
        cfg = self.config
        res = self._resolve_resilience(resilience)
        dyn = self.resolve_strategy(strategy) if changes else None
        run = (
            cluster.fault_free
            if res.fault_plan is None
            else Supervisor(cluster, res, cfg.health)
        )
        completed_steps = 0

        def observer(step: int) -> None:
            nonlocal completed_steps
            completed_steps += 1
            if cfg.collect_snapshots:
                self.snapshots.append(
                    take_snapshot(cluster, step, wf_improved=cfg.wf_improved)
                )

        obs_on = self.obs.enabled
        if obs_on:
            self.obs.span_begin(
                "run", "run", cluster.tracer.modeled_seconds
            )
        # the run span closes once, balanced even when the run raises
        span_end: Dict[str, Any] = {"attrs": {"aborted": True}}
        try:
            with run:
                try:
                    steps = run_recombination(
                        cluster,
                        supervisor=run,
                        strategy=dyn,
                        changes=changes,
                        max_steps=cfg.max_rc_steps,
                        on_step=observer,
                        start_step=self._next_step,
                        budget_modeled_seconds=budget_modeled_seconds,
                        step_budget=step_budget,
                    )
                except WorkerError:
                    # exhausted per-packet retry budget (a partitioned
                    # network)
                    if not run.degrades_gracefully:
                        raise
                    steps = completed_steps
                    run.degrade(self._next_step + steps, "retry-budget")
            degraded = bool(run.degraded_reason)
            self._next_step += steps
            pending_changes = (
                bool(changes) and changes.last_step >= self._next_step
            )
            converged = (
                not degraded
                and cluster.converged_vote()
                and not pending_changes
            )
            span_end = {
                "attrs": {
                    "rc_steps": steps,
                    "converged": converged,
                    "wire_words": cluster.tracer.total_words,
                },
                "wall": cluster.tracer.wall_seconds,
            }
        finally:
            if obs_on:
                self.obs.span_end(
                    "run", "run", cluster.tracer.modeled_seconds, **span_end
                )
        logger.debug(
            "run finished: steps=%d, modeled=%.4fs, pending_changes=%s"
            " degraded=%s",
            steps, cluster.tracer.modeled_seconds, pending_changes,
            run.degraded_reason or False,
        )
        return RunVerdict(
            rc_steps=steps,
            modeled_seconds=cluster.tracer.modeled_seconds,
            converged=converged,
            degraded=degraded,
            context=run,
        )

    def run_baseline_restart(
        self, changes: Optional[ChangeStream] = None
    ) -> RunResult:
        """The paper's Baseline Restart: recompute from scratch per batch.

        The analysis proceeds step by step; whenever a batch is scheduled,
        the entire computation restarts on the updated graph (no partial
        results are reused).  Modeled time accumulates across the wasted
        work, which is exactly the cost the anytime property avoids.
        """
        cfg = self.config
        total_modeled = 0.0
        total_wall = 0.0
        total_wire = 0
        restarts = 0
        schedule: List[Tuple[int, ChangeBatch]] = list(changes) if changes else []
        self.setup()
        cluster = self._require_cluster()
        # the original analysis progresses until the first change arrives
        # (to convergence when none is scheduled)
        steps = run_recombination(
            cluster,
            supervisor=cluster.fault_free,
            max_steps=cfg.max_rc_steps,
            start_step=0,
            step_budget=schedule[0][0] if schedule else None,
        )
        for i, (_sched_step, batch) in enumerate(schedule):
            # restart: all partial results are thrown away, and — unlike the
            # anywhere strategies — the recomputation must run to completion
            # to yield up-to-date results for this change (the paper's
            # baseline "restarts the computation from scratch for every
            # change"); with frequent updates these full reruns pile up
            total_modeled += cluster.tracer.modeled_seconds
            total_wall += cluster.tracer.wall_seconds
            total_wire += cluster.tracer.total_words
            restarts += 1
            batch.validate(self.graph)
            batch.apply_to(self.graph)
            self.setup()
            cluster = self._require_cluster()
            steps = run_recombination(
                cluster,
                supervisor=cluster.fault_free,
                max_steps=cfg.max_rc_steps,
                start_step=0,
            )
        self._next_step = steps
        return RunResult(
            closeness=self.current_closeness(),
            rc_steps=steps,
            modeled_seconds=total_modeled + cluster.tracer.modeled_seconds,
            wall_seconds=total_wall + cluster.tracer.wall_seconds,
            snapshots=list(self.snapshots),
            load=snapshot_load(cluster),
            restarts=restarts,
            wire_words=total_wire + cluster.tracer.total_words,
            boundary_words=cluster.boundary_words,
            boundary_rows_dense=cluster.boundary_rows_dense,
            boundary_rows_sparse=cluster.boundary_rows_sparse,
            wire_format=cluster.wire_format,
            profile=self._fold_profile(cluster),
        )

    @staticmethod
    def _fold_profile(cluster: Cluster) -> Dict[str, Any]:
        """Fold the cluster's cost-attribution accumulators (pure read)."""
        from ..obs.profile import fold_cluster

        return fold_cluster(cluster).to_dict()

    # ------------------------------------------------------------------
    # fault tolerance (paper §VI future work)
    # ------------------------------------------------------------------
    def crash_worker(self, rank: int) -> None:
        """Simulate a worker crash with immediate warm recovery.

        The worker loses all derived state (DVs, local APSP, received
        rows); the graph is durable input.  Recovery re-ships the
        sub-graph, reruns the local IA, and re-wires boundary-DV
        subscriptions; a subsequent :meth:`run` re-converges to the exact
        answer.  All recovery costs land on the modeled clock.
        """
        from ..runtime.faults import crash_and_recover

        crash_and_recover(self._require_cluster(), rank)

    # ------------------------------------------------------------------
    # degraded-result quality
    # ------------------------------------------------------------------
    def _partial_quality(self, run: Supervisor) -> Dict[str, float]:
        """Quantify how good a degraded partial result is.

        ``finite_fraction`` — share of DV entries that hold a finite
        (possibly still loose) upper bound; ``alive_fraction`` — share of
        ranks not retired; ``pending_rows`` / ``unacked_rows`` — updates
        that never reached their consumers.  All values are deterministic
        functions of the cluster state, so degraded results pin
        byte-for-byte like converged ones.
        """
        cluster = self._require_cluster()
        total = 0
        finite = 0
        for w in cluster.workers:
            if w.n_local:
                total += w.dv.size
                finite += int(np.isfinite(w.dv).sum())
        return {
            "finite_fraction": (finite / total) if total else 0.0,
            "alive_fraction": 1.0 - len(run.dead_ranks) / cluster.nprocs,
            "pending_rows": float(
                sum(w.pending_row_count() for w in cluster.workers)
            ),
            "unacked_rows": float(
                sum(w.unacked_row_count() for w in cluster.workers)
            ),
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def current_closeness(self) -> Dict[VertexId, float]:
        """Closeness estimates from the current DVs (anytime read)."""
        cluster = self._require_cluster()
        snap = take_snapshot(cluster, -1, wf_improved=self.config.wf_improved)
        return snap.closeness

    def current_measure(self, measure: str = "closeness") -> Dict[VertexId, float]:
        """Any row-derived SNA measure from the current DVs (anytime read).

        ``measure`` is one of ``"closeness"``, ``"harmonic"``,
        ``"eccentricity"``, ``"degree"``.  All but degree are computed from
        the same distance vectors the pipeline refines, so interrupted
        reads are valid anytime estimates.
        """
        from ..centrality.measures import (
            degree_centrality,
            eccentricity_from_row,
            harmonic_from_row,
        )

        cluster = self._require_cluster()
        if measure == "degree":
            return degree_centrality(cluster.graph)
        if measure == "closeness":
            return self.current_closeness()
        row_fns: Dict[str, Callable[[FloatArray, int], float]] = {
            "harmonic": lambda row, c: harmonic_from_row(row, self_col=c),
            "eccentricity": lambda row, c: eccentricity_from_row(
                row, self_col=c
            ),
        }
        fn = row_fns.get(measure)
        if fn is None:
            raise ConfigurationError(
                f"unknown measure {measure!r}; choose from"
                f" {['closeness', *sorted(row_fns), 'degree']}"
            )
        out: Dict[VertexId, float] = {}
        for w in cluster.workers:
            for v in w.owned:
                out[v] = fn(w.dv[w.row_of[v]], cluster.index.column(v))
        return out

    def signals(self) -> SignalView:
        """Read-only view of the live run signals (anytime read).

        Collects the well-known series into a private registry — the
        same collection the obs layer exports — so the view works with
        or without observers attached and reading it can never perturb
        the run.  Convergence-probe samples are included when probes are
        attached via ``config.observers``.
        """
        cluster = self._require_cluster()
        reg = MetricsRegistry()
        cluster.collect_signals(reg)
        return SignalView(
            reg,
            {
                name: dict(sample)
                for name, sample in self.obs.last_samples.items()
            },
        )

    def distances(self) -> Tuple[FloatArray, List[VertexId]]:
        """The assembled distance matrix (modeled as a gather to rank 0)."""
        return self._require_cluster().gather_distance_matrix()

    @property
    def modeled_seconds(self) -> float:
        return self._require_cluster().tracer.modeled_seconds

    @property
    def next_step(self) -> int:
        """The absolute RC step the next :meth:`run` call starts at.

        Change streams use absolute steps; the serve loop schedules each
        admitted batch here so it lands on the very next step.
        """
        return self._next_step

    # ------------------------------------------------------------------
    # lifecycle teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the cluster's backend resources and flush exporters.

        Idempotent; also runs via the context-manager protocol, so
        ``with AnytimeAnywhereCloseness(g, cfg) as engine: ...``
        releases process-backend shm segments and finalizes trace files
        even when a run raises mid-phase.
        """
        if self.cluster is not None:
            # final counter refresh so the metric flush includes charges
            # made after the last superstep (vote words, recovery)
            self.cluster.refresh_metrics()
            self.obs.close(self.cluster.tracer.modeled_seconds)
            self.cluster.close()
        else:
            self.obs.close()

    def __enter__(self) -> "AnytimeAnywhereCloseness":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def closeness(
    graph: Graph,
    *,
    nprocs: int = 16,
    changes: Optional[ChangeStream] = None,
    strategy: Union[str, DynamicStrategy, None] = "roundrobin",
    config: Optional[AnytimeConfig] = None,
    budget_modeled_seconds: Optional[float] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> RunResult:
    """One-shot closeness: a :func:`repro.session` opened for one run.

    The session API is the primary entry point — a
    :class:`~repro.serve.session.Session` bundles the engine lifecycle
    (setup, incremental runs, anytime reads, teardown).  ``closeness``
    is the one-shot convenience built directly on it: open a session,
    run to convergence, close::

        import repro
        result = repro.closeness(g, nprocs=8)
        result.closeness[42]

    is exactly::

        with repro.session(g, repro.AnytimeConfig(nprocs=8)) as s:
            result = s.run()

    Dynamic analysis works the same way as :meth:`.run` (``"auto"``
    selects the strategy per batch from live signals)::

        result = repro.closeness(g, nprocs=8, changes=stream,
                                 strategy="auto")

    Pass ``config`` for full control (it supplies ``nprocs``; passing
    both with conflicting values is an error).  Keep a session open
    instead when you need incremental feeds, anytime reads, or live
    signals.  ``resilience`` overrides the config's fault-tolerance
    group for the run, exactly as in :meth:`.run`.
    """
    from ..serve.session import session

    if config is None:
        config = AnytimeConfig(nprocs=nprocs)
    elif nprocs != 16 and nprocs != config.nprocs:
        raise ConfigurationError(
            f"conflicting nprocs: argument {nprocs} vs config"
            f" {config.nprocs}"
        )
    # session context: backend resources (process-pool shm segments) are
    # released and exporters flushed even when the run raises mid-phase
    with session(graph, config) as s:
        return s.run(
            changes=changes,
            strategy=strategy,
            budget_modeled_seconds=budget_modeled_seconds,
            resilience=resilience,
        )
