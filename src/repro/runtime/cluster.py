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
  workers' metered compute to the modeled clock,
* :meth:`migrate` — move to a new partition keeping every partial result
  (Repartition-S, rebalancing, degraded-mode recovery),
* :meth:`link_edge`, :meth:`unlink_edge`, :meth:`drop_vertex` and
  :meth:`wire_subscriptions` — every structural change that spans ranks:
  both sides of a cut edge, the subscriptions it needs, and a vertex's
  row, entries and column wherever they live.

Time accounting convention: any sequence of worker-side kernels between two
:meth:`sync_compute` calls is one superstep; its modeled duration is the
slowest worker's compute.  Communication is priced by the configured
:class:`~repro.model.schedules.CommSchedule`.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import (
    TYPE_CHECKING, Collection, Dict, List, Optional, Sequence, Set, Tuple,
)

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
from ..types import FloatArray, Rank, VertexId
from .backends import BackendSpec, make_backend
from .entries import KernelArrays
from .index import GlobalIndex
from .kernels import SuperstepTask
from .message import DeltaRows, dense_row_words, dv_payload_words
from .supervisor import Supervisor
from .tracing import Tracer
from .worker import Worker

if TYPE_CHECKING:  # pragma: no cover
    from .health import HealthMonitor

#: per-rank speculative-execution capture: the rank's superstep task plus
#: its ``EntryStore.kernel_arrays(private=True)`` to re-execute it on
SpecContext = Dict[Rank, Tuple[SuperstepTask, KernelArrays]]

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
        self.workers: List[Worker] = [
            Worker(
                r,
                nprocs,
                self.index,
                cost,
                wire_format=wire_format,
                allocator=self.backend.allocator,
            )
            for r in range(nprocs)
        ]
        #: cost-attribution accumulators for the profiler (always on —
        #: pure bookkeeping over already-metered values, never touches
        #: the modeled clock): per-rank metered kernel seconds, and the
        #: *charged* barrier seconds attributed to the critical rank and
        #: to the enclosing tracer phase
        self.kernel_metered_by_rank: Dict[Rank, float] = {}
        self.kernel_charged_by_rank: Dict[Rank, float] = {}
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
        #: the run context of every fault-free run, built once: the null
        #: fault policy, no health monitor.  It sees the cluster through a
        #: weak proxy: a reference cycle would keep a dropped cluster's
        #: arrays alive until the cyclic collector ran
        self.fault_free = Supervisor(weakref.proxy(self))
        #: the fault policy every boundary exchange consults, installed by
        #: the entered run context (the null policy between runs)
        self.chaos = self.fault_free.injector
        #: the entered run's health monitor (None = no self-healing)
        self.health: Optional["HealthMonitor"] = None
        #: per-rank speeds before the run's straggler slowdowns (None when
        #: no rank is slowed): the speed of a speculative backup slot
        self.reference_speeds: Optional[List[float]] = None
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
                    attrs={"modeled_seconds": seconds},
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
                task, arrays = captured
                self.backend.run_speculative(task, arrays)
                w = self.workers[r]
                if not np.array_equal(arrays.dv, w.dv):
                    raise RuntimeSimulationError(
                        f"speculative re-execution of rank {r} diverged"
                        " from the straggler's own superstep result"
                    )
                # only slowed ranks are captured, so reference speeds exist
                assert self.reference_speeds is not None
                backup = times[r] * (w.speed / self.reference_speeds[r]) * (
                    1.0 + monitor.policy.speculation_overhead
                )
                mitigated = min(times[r], deadline + backup)
                if mitigated < times[r]:
                    monitor.speculations += 1
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
            sum(len(d) for wk in self.workers for d in wk.cut.values()) / 2
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
        self.wire_subscriptions(range(self.nprocs))

    def reload_rank(self, rank: Rank) -> None:
        """Re-ship ``rank``'s sub-graph from the coordinator's durable
        input and reload it (crash recovery): one word per vertex and
        three per local or cut edge."""
        if self.partition is None:
            raise RuntimeSimulationError(
                "cluster has no installed partition to re-ship"
            )
        owned = self.partition.block(rank)
        sub = extract_local_subgraph(
            self.graph, owned, self.partition.assignment, rank
        )
        words = len(owned) + 3 * sub.local_graph.num_edges + 3 * len(sub.cut_edges)
        self.charge_comm_words([(0, rank, words)])
        self.workers[rank].load_subgraph(sub)

    def migrate(self, part: Partition, *, keep_local_apsp: bool = True) -> None:
        """Move to ``part`` keeping every partial result (anytime reuse).

        Every DV row travels to its new owner as a seed row.  With
        ``keep_local_apsp`` a rank whose block did not change re-applies
        its local APSP; every other rank reruns its local Dijkstra (and
        all do without it — Repartition-S, whose batch changed local
        edges).  All boundary rows are then queued for a dense refresh
        and the barrier is charged.  Callers charge the shipping of rows
        and adjacency themselves, before calling.
        """
        rows = self.distance_rows()
        blocks = part.blocks()
        # copies: reloading a block releases the old array's shared-memory
        # segment under the process backend
        kept = {
            w.rank: w.local_apsp.copy()
            for w in self.workers
            if keep_local_apsp and w.owned == blocks[w.rank]
        }
        self.install_partition(part, seed_rows=rows)
        for w in self.workers:
            w.restore_state(kept.get(w.rank))
        self.sync_compute()

    def wire_subscriptions(self, ranks: Collection[Rank]) -> None:
        """Wire the boundary subscriptions of freshly loaded ``ranks``, in
        both directions: the owner of each external boundary vertex ``x``
        of a rank subscribes that rank to ``x``'s row, and each loaded
        rank subscribes every peer whose boundary holds one of its
        vertices.  Subscribing queues the row, dense.

        A peer outside ``ranks`` first forgets what it published to a
        loaded rank, so a repeated reload of one rank (crash, recovery)
        leaves no stale subscription; loaded ranks start with fresh
        channels.
        """
        for peer in self.workers:
            if peer.rank not in ranks:
                for r in ranks:
                    peer.channels[r].unsubscribe()
        for w in self.workers:
            for x in w.cut:
                owner = self.owner_of(x)
                if w.rank in ranks or owner in ranks:
                    self.workers[owner].subscribe(x, w.rank)

    # ------------------------------------------------------------------
    # structural changes across ranks (Fig. 3 lines 35-42, deletions)
    # ------------------------------------------------------------------
    def link_edge(self, a: VertexId, b: VertexId, w: float) -> None:
        """Join edge ``(a, b, w)`` to the distributed structure.

        An intra-partition edge repairs its owner's local APSP; a cut edge
        registers on both sides, and each side then needs the other's row
        stream (Fig. 3 lines 35-42).  Re-linking an edge replaces its
        weight.
        """
        rank_a, rank_b = self.owner_of(a), self.owner_of(b)
        wa = self.workers[rank_a]
        if rank_a == rank_b:
            wa.add_local_edge(a, b, w)
            return
        wb = self.workers[rank_b]
        wa.add_cut_edge(a, b, w)
        wb.add_cut_edge(b, a, w)
        wa.subscribe(a, rank_b)
        wb.subscribe(b, rank_a)

    def unlink_edge(self, u: VertexId, v: VertexId) -> Set[Rank]:
        """Take edge ``(u, v)`` out of the distributed structure; returns
        the ranks whose local sub-graph lost it (their local APSP is stale
        until the caller recomputes it).

        A cut edge leaves both sides, but the owners keep both
        subscriptions: each endpoint's row keeps flowing to the other rank
        with no cut edge left to relax it through — harmless to the
        result, but wire words.
        """
        rank_u, rank_v = self.owner_of(u), self.owner_of(v)
        if rank_u == rank_v:
            self.workers[rank_u].local_graph.remove_edge(u, v)
            return {rank_u}
        self.workers[rank_u].remove_cut_edge(u, v)
        self.workers[rank_v].remove_cut_edge(v, u)
        return set()

    def drop_vertex(self, x: VertexId) -> Set[Rank]:
        """Take vertex ``x`` out of the distributed structure: the owner's
        row and local edges, the neighbour ranks' cut edges to it, its
        column on every rank, the index and the partition.  Returns the
        owner and the ranks that held an edge to ``x``.
        """
        owner_rank = self.owner_of(x)
        owner = self.workers[owner_rank]
        ranks = {owner_rank}
        ranks.update(self.owner_of(y) for y, edges in owner.cut.items() if x in edges)
        owner.remove_local_vertex(x)
        for r in sorted(ranks - {owner_rank}):
            self.workers[r].drop_external_vertex(x)
        col = self.index.remove(x)
        for w in self.workers:
            w.remove_column(col)
        assert self.partition is not None  # owner_of found one
        del self.partition.assignment[x]
        return ranks

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
                for seq, rows, attempt in w.outbound_packets(dst, max_retries):
                    if attempt > 1:
                        retries += 1
                        chaos.record_retry(src, dst, seq)
                        if self.health is not None:
                            delay = self.health.backoff_delay(attempt)
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
            channel = self.workers[src].channels[dst]
            if self.workers[dst].receive_packet(
                src, seq, rows, channel.send_floor
            ):
                delivered += len(rows)
            for _ in range(copies):
                if not chaos.reliable:
                    messages.append((dst, src, 1))  # 1-word ack on the wire
                if not chaos.ack_lost(src, dst, seq):
                    channel.ack(seq)
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
            pre = self.reference_speeds
            if pre is not None and self.health.policy.speculate:
                for r, w in enumerate(self.workers):
                    if w.speed < pre[r]:
                        # the real kernel extends its task's dirty mask
                        # and the changed-entry mask in place, so the
                        # backup gets private copies of both; it reads the
                        # same stored external rows
                        ctx[r] = (
                            replace(
                                tasks[r], dirty_cols=tasks[r].dirty_cols.copy()
                            ),
                            w.entries.kernel_arrays(private=True),
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
        return any(w.has_work() for w in self.workers)

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
        return not any(w.has_work() for w in self.workers)
