"""The simulated SPMD cluster.

Owns the global graph, the global vertex index, the workers, and the two
clocks (modeled LogP time, wall time).  The cluster provides the
*synchronization and communication primitives* that the core algorithm
phases (``repro.core``) orchestrate:

* :meth:`decompose` — DD: partition, build local sub-graphs, wire
  boundary-DV subscriptions,
* :meth:`exchange_boundary` — the personalized all-to-all boundary-DV
  exchange of each RC step (Fig. 1 lines 9-15),
* :meth:`broadcast_row` — binomial-tree DV-row broadcast (Fig. 3 line 22),
* :meth:`sync_compute` — BSP-style barrier: charges the *max* of the
  workers' metered compute to the modeled clock.

Time accounting convention: any sequence of worker-side kernels between two
:meth:`sync_compute` calls is one superstep; its modeled duration is the
slowest worker's compute.  Communication is priced by the configured
:class:`~repro.model.schedules.CommSchedule`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    CommunicationError,
    ConfigurationError,
    RuntimeSimulationError,
)
from ..graph.graph import Graph
from ..graph.views import extract_local_subgraph
from ..model.cost import DEFAULT_COST, CostModel
from ..model.logp import DEFAULT_LOGP, LogPParams
from ..model.schedules import (
    CommSchedule,
    SequentialAllToAll,
    tree_broadcast_time,
)
from ..obs import registry as series
from ..obs.observer import NULL_HUB, ObserverHub
from ..partition.base import Partition, Partitioner
from ..types import BoolArray, FloatArray, Rank, VertexId
from .backends import BackendSpec, make_backend
from .chaos import FaultInjector
from .index import GlobalIndex
from .kernels import SuperstepTask, TierSpec, make_tier
from .message import DeltaRows, dense_row_words, dv_payload_words
from .tracing import Tracer
from .worker import Worker

if TYPE_CHECKING:  # pragma: no cover
    from .health import HealthMonitor

#: per-rank speculative-execution capture: the rank's superstep task plus
#: private copies of its dv / local_apsp / dv_changed to re-execute the
#: kernel on
SpecContext = Dict[
    Rank, Tuple[SuperstepTask, FloatArray, FloatArray, BoolArray]
]

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster of ``nprocs`` workers around one global graph."""

    def __init__(
        self,
        graph: Graph,
        nprocs: int,
        *,
        cost: CostModel = DEFAULT_COST,
        logp: LogPParams = DEFAULT_LOGP,
        schedule: Optional[CommSchedule] = None,
        worker_speeds: Optional[Sequence[float]] = None,
        wire_format: str = "delta",
        backend: BackendSpec = "serial",
        kernel_tier: TierSpec = "numpy",
        obs: Optional[ObserverHub] = None,
    ) -> None:
        if nprocs < 1:
            raise ConfigurationError(f"nprocs must be >= 1, got {nprocs}")
        if wire_format not in ("dense", "delta"):
            raise ConfigurationError(
                f"wire_format must be 'dense' or 'delta', got {wire_format!r}"
            )
        if worker_speeds is not None:
            if len(worker_speeds) != nprocs:
                raise ConfigurationError(
                    f"worker_speeds has {len(worker_speeds)} entries for"
                    f" {nprocs} workers"
                )
            if any(sp <= 0 for sp in worker_speeds):
                raise ConfigurationError("worker speeds must be positive")
        self.graph = graph
        self.nprocs = nprocs
        self.cost = cost
        self.logp = logp
        self.schedule = schedule or SequentialAllToAll()
        self.wire_format = wire_format
        #: observability hub (disabled NULL_HUB by default); the tracer
        #: emits phase/superstep spans to it, the cluster adds
        #: rank-kernel events and per-superstep metric samples
        self.obs = obs if obs is not None else NULL_HUB
        self.tracer = Tracer(hub=self.obs)
        self.index = GlobalIndex(graph.vertex_list())
        #: where the per-rank compute kernels execute (serial / process);
        #: workers allocate dv / local_apsp through the backend so the
        #: process backend can hand shared-memory views to its pool
        self.backend = make_backend(backend, nprocs)
        #: kernel tier executing the per-rank compute (numpy oracle /
        #: source-chunked scipy)
        self.tier = make_tier(kernel_tier)
        self.workers: List[Worker] = [
            Worker(
                r,
                nprocs,
                self.index,
                cost,
                wire_format=wire_format,
                allocator=self.backend.allocator,
                tier=self.tier,
            )
            for r in range(nprocs)
        ]
        #: cost-attribution accumulators for the profiler (always on —
        #: pure bookkeeping over already-metered values, never touches
        #: the modeled clock): per-rank metered kernel seconds, and the
        #: *charged* barrier seconds attributed to the critical rank,
        #: the active kernel tier, and the enclosing tracer phase
        self.kernel_metered_by_rank: Dict[Rank, float] = {}
        self.kernel_charged_by_rank: Dict[Rank, float] = {}
        self.kernel_charged_by_tier: Dict[str, float] = {}
        self.kernel_charged_by_phase: Dict[str, float] = {}
        self.kernel_barriers = 0
        #: boundary-exchange payload words actually put on the wire
        #: (deliveries, retries and duplicates included; acks excluded)
        self.boundary_words = 0
        #: boundary rows shipped per encoding, for bench reporting
        self.boundary_rows_dense = 0
        self.boundary_rows_sparse = 0
        if worker_speeds is not None:
            for w, sp in zip(self.workers, worker_speeds):
                w.speed = float(sp)
        self.partition: Optional[Partition] = None
        #: the fault policy every boundary exchange consults; without an
        #: attached plan it is the null policy (reliable network)
        self.chaos = FaultInjector(None, nprocs)
        self._pre_chaos_speeds: Optional[List[float]] = None
        #: active health monitor (None = no self-healing instrumentation)
        self.health: Optional["HealthMonitor"] = None
        #: non-None only during a superstep barrier with health attached;
        #: holds the speculative captures of suspected straggler ranks
        self._spec_context: Optional[SpecContext] = None
        self._closed = False

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def owner_of(self, v: VertexId) -> Rank:
        if self.partition is None:
            raise CommunicationError("cluster has not been decomposed yet")
        try:
            return self.partition.assignment[v]
        except KeyError:
            raise CommunicationError(f"vertex {v} has no owner") from None

    def worker_owning(self, v: VertexId) -> Worker:
        return self.workers[self.owner_of(v)]

    # ------------------------------------------------------------------
    # time accounting primitives
    # ------------------------------------------------------------------
    def sync_compute(self) -> float:
        """BSP barrier: charge the slowest worker's metered compute.

        With a health monitor attached and a superstep speculation
        context set (see :meth:`relax_and_propagate`), the barrier time
        is instead the straggler-mitigated maximum: ranks past the
        deadline whose kernels were speculatively re-executed finish at
        ``deadline + backup_time`` (first completion wins).
        """
        times = [w.take_compute_seconds() for w in self.workers]
        t = max(times) if times else 0.0
        if self.health is not None and self._spec_context is not None:
            t = self._mitigated_barrier(times)
        rec = self.tracer._open
        if times:
            # critical rank = first slowest (deterministic tiebreak);
            # it is charged the whole (possibly mitigated) barrier
            crit = times.index(max(times))
            for rank, seconds in enumerate(times):
                if seconds:
                    self.kernel_metered_by_rank[rank] = (
                        self.kernel_metered_by_rank.get(rank, 0.0) + seconds
                    )
            self.kernel_charged_by_rank[crit] = (
                self.kernel_charged_by_rank.get(crit, 0.0) + t
            )
            tier_name = self.tier.name
            self.kernel_charged_by_tier[tier_name] = (
                self.kernel_charged_by_tier.get(tier_name, 0.0) + t
            )
            phase = rec.name if rec is not None else ""
            self.kernel_charged_by_phase[phase] = (
                self.kernel_charged_by_phase.get(phase, 0.0) + t
            )
            self.kernel_barriers += 1
        if self.obs.enabled:
            start = self.tracer.now()
            step = rec.step if rec is not None else None
            for rank, seconds in enumerate(times):
                self.obs.registry.observe(
                    series.RANK_COMPUTE_SECONDS, seconds, rank=str(rank)
                )
                self.obs.point(
                    "rank_kernel",
                    "kernel",
                    start,
                    step=step,
                    rank=rank,
                    attrs={
                        "modeled_seconds": seconds,
                        "tier": self.tier.name,
                    },
                )
        self.tracer.add_compute(t)
        return t

    def _mitigated_barrier(self, times: List[float]) -> float:
        """Deadline-driven straggler mitigation for one superstep barrier.

        Feeds the barrier's metered times into the health state machine,
        then — for flagged ranks whose work was captured before the
        superstep — *actually re-executes* the rank's kernel on private
        copies via the backend and verifies the backup's DV is bitwise
        identical to the straggler's own outcome.  The mitigated rank
        finishes at ``deadline + (1 + overhead) x reference-speed
        duration`` (the supervisor notices the miss at the deadline and
        the backup runs on a healthy reference-speed slot; whichever
        copy finishes first wins).  Results never change — speed only
        affects the modeled clock — so mitigated runs keep closeness
        bitwise-identical to the fault-free run.
        """
        monitor = self.health
        spec = self._spec_context
        assert monitor is not None and spec is not None
        flagged = monitor.observe_superstep(
            times, [w.unacked_row_count() for w in self.workers]
        )
        if not times:
            return 0.0
        effective = list(times)
        deadline = monitor.last_deadline
        if monitor.policy.speculate and deadline > 0.0:
            for r in flagged:
                captured = spec.get(r)
                if captured is None:
                    continue
                task, dv_copy, apsp_copy, changed_copy = captured
                self.backend.run_speculative(
                    task, dv_copy, apsp_copy, changed_copy
                )
                w = self.workers[r]
                if not np.array_equal(dv_copy, w.dv):
                    raise RuntimeSimulationError(
                        f"speculative re-execution of rank {r} diverged"
                        " from the straggler's own superstep result"
                    )
                ref_speed = (
                    self._pre_chaos_speeds[r]
                    if self._pre_chaos_speeds is not None
                    else w.speed
                )
                backup = times[r] * (w.speed / ref_speed) * (
                    1.0 + monitor.policy.speculation_overhead
                )
                mitigated = min(times[r], deadline + backup)
                if mitigated < times[r]:
                    monitor.speculations += 1
                    monitor.speculation_saved_seconds += times[r] - mitigated
                    effective[r] = mitigated
        rec = self.tracer._open
        if rec is not None and monitor.speculations:
            rec.info["speculations"] = float(monitor.speculations)
        return max(effective)

    def charge_serial_compute(self, seconds: float) -> None:
        """Charge compute that runs on one processor (e.g. coordination)."""
        self.tracer.add_compute(seconds)

    def charge_comm_words(
        self, messages: Sequence[Tuple[Rank, Rank, int]]
    ) -> float:
        """Price a batch of point-to-point messages given in *words*."""
        priced = [
            (s, d, w * self.logp.word_bytes) for s, d, w in messages if s != d
        ]
        t = self.schedule.exchange_time(priced, self.logp)
        self.tracer.add_comm(
            t, messages=len(priced), words=sum(w for _s, _d, w in messages)
        )
        return t

    # ------------------------------------------------------------------
    # DD phase
    # ------------------------------------------------------------------
    def decompose(self, partitioner: Partitioner) -> Partition:
        """Partition the graph and install local sub-graphs on the workers.

        ParMETIS in the paper is a *parallel* partitioner, so the modeled
        partitioning compute is divided across the processors.
        """
        rec = self.tracer.begin("domain_decomposition")
        part = partitioner.partition(self.graph, self.nprocs)
        part.validate_against(self.graph)
        self.partition = part
        n, m = self.graph.num_vertices, self.graph.num_edges
        self.tracer.add_compute(
            self.cost.partition_time(n, 2 * m, self.nprocs) / self.nprocs
        )
        self.install_partition(part)
        # distributing the sub-graphs: each edge/vertex shipped once
        dist_msgs = []
        for r in range(self.nprocs):
            w = self.workers[r]
            words = w.n_local + 3 * w.local_graph.num_edges
            dist_msgs.append((0, r, words))
        self.charge_comm_words(dist_msgs)
        rec.info["edge_cut"] = float(
            sum(len(d) for wk in self.workers for d in wk.cut_adj.values()) / 2
        )
        self.tracer.end()
        return part

    def install_partition(
        self,
        part: Partition,
        *,
        seed_rows: Optional[Dict[VertexId, FloatArray]] = None,
    ) -> None:
        """(Re)build every worker's local sub-graph from ``part``.

        ``seed_rows`` routes migrated DV rows to their new owners
        (Repartition-S anytime reuse).
        """
        self.partition = part
        owner = part.assignment
        blocks = part.blocks()
        for r in range(self.nprocs):
            sub = extract_local_subgraph(self.graph, blocks[r], owner, r)
            rows = None
            if seed_rows:
                rows = {
                    v: seed_rows[v] for v in blocks[r] if v in seed_rows
                }
            self.workers[r].load_subgraph(sub, seed_rows=rows)
        self._wire_subscriptions()

    def _wire_subscriptions(self) -> None:
        """Every worker subscribes to the owners of its external boundary."""
        for w in self.workers:
            for x in w.cut_by_ext:
                self.workers[self.owner_of(x)].subscribe(x, w.rank)

    # ------------------------------------------------------------------
    # IA phase
    # ------------------------------------------------------------------
    def run_initial_approximation(self) -> None:
        self.tracer.begin("initial_approximation")
        tasks = [w.ia_prepare() for w in self.workers]
        self.backend.run_ia(self.workers, tasks)
        for w, task in zip(self.workers, tasks):
            if task is not None:
                w.ia_apply(task)
        self.sync_compute()
        self.tracer.end()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def attach_chaos(self, injector: FaultInjector) -> None:
        """Make ``injector`` the exchange's fault policy and apply its
        straggler slowdowns.  Detach with :meth:`detach_chaos`."""
        if injector.nprocs != self.nprocs:
            raise ConfigurationError(
                f"fault injector built for {injector.nprocs} workers,"
                f" cluster has {self.nprocs}"
            )
        self.chaos = injector
        self._pre_chaos_speeds = [w.speed for w in self.workers]
        for rank, factor in injector.plan.stragglers:
            self.workers[rank].speed /= factor

    def detach_chaos(self) -> None:
        """Restore the reliable network and original worker speeds.

        Any rows still awaiting acknowledgement move back to the pending
        queues, so the next exchange completes their delivery.
        """
        self.chaos = FaultInjector(None, self.nprocs)
        if self._pre_chaos_speeds is not None:
            for w, sp in zip(self.workers, self._pre_chaos_speeds):
                w.speed = sp
            self._pre_chaos_speeds = None
        for w in self.workers:
            w.flush_unacked()

    # ------------------------------------------------------------------
    # health / self-healing
    # ------------------------------------------------------------------
    def attach_health(self, monitor: "HealthMonitor") -> None:
        """Drive the per-rank health state machine from superstep barriers
        and enable deadline-driven straggler mitigation + modeled retry
        backoff.  Detach with :meth:`detach_health`."""
        if monitor.nprocs != self.nprocs:
            raise ConfigurationError(
                f"health monitor built for {monitor.nprocs} workers,"
                f" cluster has {self.nprocs}"
            )
        self.health = monitor

    def detach_health(self) -> None:
        self.health = None
        self._spec_context = None

    # ------------------------------------------------------------------
    # RC-step primitives
    # ------------------------------------------------------------------
    def exchange_boundary(self) -> int:
        """Personalized all-to-all exchange of queued boundary-DV rows.

        Returns the number of DV rows delivered.  Every packet carries a
        per-channel sequence number; the sender keeps it buffered until
        the destination's ack arrives, so the RC fixed-point vote cannot
        falsely converge while an update sits undelivered.  The fault
        policy (:attr:`chaos`) decides each packet's fate: lost packets
        (and lost acks) are retried at the next exchange; duplicates are
        deduplicated by sequence number.  All traffic — including
        retries, duplicates and the 1-word acks — is priced by the LogP
        schedule.  On a reliable network (no fault plan) delivery *is*
        the acknowledgement, so no ack goes on the wire.
        """
        chaos = self.chaos
        max_retries = chaos.plan.max_retries
        messages: List[Tuple[Rank, Rank, int]] = []
        #: (src, dst, seq, payload, copies delivered on the wire)
        deliveries: List[Tuple[Rank, Rank, int, DeltaRows, int]] = []
        retries = 0
        #: modeled seconds of exponential-backoff delay before retransmits
        backoff = 0.0
        for src in range(self.nprocs):
            w = self.workers[src]
            for dst in range(self.nprocs):
                if dst == src:
                    continue
                for seq, rows, is_retry in w.outbound_packets(
                    dst, max_retries
                ):
                    if is_retry:
                        retries += 1
                        chaos.record_retry(src, dst, seq)
                        if self.health is not None:
                            delay = self.health.backoff_delay(
                                w.attempt_count(dst, seq)
                            )
                            backoff += delay
                            chaos.record_backoff(src, dst, seq, delay)
                    outcome = chaos.send_outcome(src, dst, seq)
                    if outcome == "send_failure":
                        continue  # never hit the wire; retried next step
                    copies = 2 if outcome == "duplicated" else 1
                    words = rows.words()
                    messages.extend([(src, dst, words)] * copies)
                    self.boundary_words += copies * words
                    self.boundary_rows_dense += copies * len(rows.dense)
                    self.boundary_rows_sparse += copies * len(rows.sparse)
                    if outcome == "lost":
                        continue
                    deliveries.append((src, dst, seq, rows, copies))
        delivered = 0
        for src, dst, seq, rows, copies in deliveries:
            sender = self.workers[src]
            if self.workers[dst].receive_packet(
                src, seq, rows, sender.send_floor(dst)
            ):
                delivered += len(rows)
            for _ in range(copies):
                if not chaos.reliable:
                    messages.append((dst, src, 1))  # 1-word ack on the wire
                if not chaos.ack_lost(src, dst, seq):
                    sender.ack_packet(dst, seq)
        self.charge_comm_words(messages)
        if backoff:
            # backoff is wait time on the modeled clock, priced like comm
            self.tracer.add_comm(backoff)
        rec = self.tracer._open
        if rec is not None:
            if retries:
                rec.info["retries"] = rec.info.get("retries", 0.0) + retries
            if backoff:
                rec.info["backoff_seconds"] = (
                    rec.info.get("backoff_seconds", 0.0) + backoff
                )
        return delivered

    def relax_and_propagate(self) -> bool:
        """Cut-edge relaxation + local min-plus propagation on all workers.

        The one superstep driver: every rank's task is prepared here,
        the backend only executes the kernels, and the outcomes are
        applied in rank order — so the charge sequence and queue updates
        cannot depend on where the kernels ran.

        With a health monitor attached this is the *mitigated* superstep:
        each known-slow rank's prepared task and array state are captured
        so :meth:`_mitigated_barrier` can speculatively re-execute its
        kernel if the rank misses the deadline.  Only this superstep
        barrier is mitigated — the IA phase and recovery barriers run
        unmodified (one-shot phases, no deadline baseline).
        """
        tasks = [w.superstep_prepare() for w in self.workers]
        if self.health is not None:
            ctx: SpecContext = {}
            pre = self._pre_chaos_speeds
            if pre is not None and self.health.policy.speculate:
                for r, w in enumerate(self.workers):
                    if w.speed < pre[r]:
                        # the real kernel extends its task's dirty mask
                        # and the changed-entry mask in place, so the
                        # backup gets private copies of both
                        ctx[r] = (
                            replace(
                                tasks[r], dirty_cols=tasks[r].dirty_cols.copy()
                            ),
                            w.dv.copy(),
                            w.local_apsp.copy(),
                            w.dv_changed.copy(),
                        )
            # an empty dict still arms the barrier: the state machine must
            # observe every superstep even when nothing can be speculated
            self._spec_context = ctx
        try:
            results = self.backend.relax_and_propagate(self.workers, tasks)
            changed = False
            for w, task, result in zip(self.workers, tasks, results):
                changed = w.superstep_apply(task, result) or changed
            self.sync_compute()
        finally:
            self._spec_context = None
        return changed

    def close(self) -> None:
        """Release backend resources (shared-memory segments).

        Idempotent: safe to call any number of times, including via the
        context-manager protocol *and* explicitly.  Abandoned clusters
        release the same resources when garbage collected; explicit
        close is for long-lived processes (benchmarks, services) that
        churn through many clusters — and for ``finally`` paths that
        must not leak shm segments when a run raises mid-phase.
        """
        if self._closed:
            return
        self._closed = True
        self.backend.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observability sampling
    # ------------------------------------------------------------------
    def observe_superstep(self, step: int) -> None:
        """Sample the well-known metric series after one completed RC
        superstep, and run any attached convergence probes.

        Pure observation — touches only the observability hub, never the
        modeled clock or algorithm state, so results are bitwise
        identical with observers on or off.
        """
        if not self.obs.enabled:
            return
        self.refresh_metrics()
        self.obs.sample_counters(
            series.COUNTER_TRACK_SERIES, self.tracer.now(), step=step
        )
        self.obs.sample_probes(self, step)

    def refresh_metrics(self) -> None:
        """Copy the cluster's current totals into the metrics registry.

        Runs after every superstep and once more at engine close, so the
        final flush reflects charges made after the last superstep (the
        convergence vote's all-reduce words, recovery traffic).
        """
        if not self.obs.enabled:
            return
        self.collect_signals(self.obs.registry)

    def collect_signals(self, reg: "series.MetricsRegistry") -> None:
        """Sample the well-known series into ``reg``, unconditionally.

        The observer path (:meth:`refresh_metrics`) and the strategy-
        policy path (a *private* registry owned by the policy strategy)
        share this one collector, so policy decisions see exactly the
        gauges the obs layer exports — whether or not observers are
        attached — and the non-perturbation invariant holds for
        policy-driven runs.
        """
        from .metrics import snapshot_load

        reg.counter_set(series.WIRE_WORDS, float(self.tracer.total_words))
        reg.counter_set(
            series.BOUNDARY_WORDS,
            float(self.boundary_words),
            format=self.wire_format,
        )
        reg.counter_set(
            series.BOUNDARY_ROWS,
            float(self.boundary_rows_dense),
            encoding="dense",
        )
        reg.counter_set(
            series.BOUNDARY_ROWS,
            float(self.boundary_rows_sparse),
            encoding="sparse",
        )
        rows_total = self.boundary_rows_dense + self.boundary_rows_sparse
        if rows_total:
            reg.gauge(
                series.DELTA_HIT_RATE,
                self.boundary_rows_sparse / rows_total,
            )
        for w in self.workers:
            reg.gauge(
                series.PENDING_ROWS,
                float(w.pending_row_count()),
                rank=str(w.rank),
            )
            reg.gauge(
                series.UNACKED_ROWS,
                float(w.unacked_row_count()),
                rank=str(w.rank),
            )
        if not self.chaos.reliable:
            stats = self.chaos.stats
            reg.counter_set(series.RETRIES, float(stats.retries))
            reg.counter_set(series.FAULTS, float(stats.faults_injected))
        if self.health is not None:
            mon = self.health
            for w in self.workers:
                reg.gauge(
                    series.HEALTH_STATE,
                    float(mon.state_value(w.rank)),
                    rank=str(w.rank),
                )
            reg.counter_set(
                series.MISSED_DEADLINES, float(mon.missed_deadlines)
            )
            reg.counter_set(series.SPECULATIONS, float(mon.speculations))
            reg.counter_set(series.BACKOFF_SECONDS, mon.backoff_seconds)
        load = snapshot_load(self)
        reg.gauge(series.LOAD_VERTEX_IMBALANCE, load.vertex_imbalance)
        reg.gauge(series.LOAD_CUT_IMBALANCE, load.cut_imbalance)
        reg.gauge(series.ACTIVE_WORKERS, float(load.active_workers))
        reg.gauge(series.GRAPH_VERTICES, float(self.graph.num_vertices))

    def any_pending(self) -> bool:
        """Convergence vote (modeled as a tiny all-reduce)."""
        self.charge_comm_words([(r, 0, 1) for r in range(1, self.nprocs)])
        return any(w.has_pending() for w in self.workers)

    # ------------------------------------------------------------------
    # broadcasts and column maintenance
    # ------------------------------------------------------------------
    def broadcast_row(self, v: VertexId) -> FloatArray:
        """Owner broadcasts ``v``'s DV row to all ranks (binomial tree)."""
        row = self.worker_owning(v).dv_row(v)
        words = dense_row_words(row.size)
        t = tree_broadcast_time(
            words * self.logp.word_bytes, self.nprocs, self.logp
        )
        self.tracer.add_comm(t, messages=self.nprocs - 1, words=words)
        return row

    def add_vertex_columns(self, vertices: Sequence[VertexId]) -> None:
        """Register new vertices and grow every worker's DV (Fig. 3 l.11-18)."""
        for v in vertices:
            self.index.add(v)
        n = len(self.index)
        for w in self.workers:
            w.grow_columns(n)

    @property
    def n_columns(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------
    def gather_distance_matrix(self) -> Tuple[FloatArray, List[VertexId]]:
        """Assemble the full distance matrix (rows/cols in index order).

        Models the result gather as each worker shipping its rows to rank 0.
        """
        n = self.n_columns
        out = np.full((n, n), np.inf, dtype=np.float64)
        messages = []
        for w in self.workers:
            for v in w.owned:
                out[self.index.column(v)] = w.dv[w.row_of[v]]
            if w.rank != 0:
                messages.append(
                    (w.rank, 0, dv_payload_words(w.n_local, n))
                )
        self.charge_comm_words(messages)
        return out, list(self.index.ids)

    def distance_rows(self) -> Dict[VertexId, FloatArray]:
        """Current DV row (copy) of every vertex, keyed by vertex id."""
        return {
            v: w.dv[w.row_of[v]].copy()
            for w in self.workers
            for v in w.owned
        }

    def converged_vote(self) -> bool:
        return not any(w.has_pending() for w in self.workers)
