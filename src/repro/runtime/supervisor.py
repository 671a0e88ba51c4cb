"""The run context: one object owns a run's fault machinery.

Every :meth:`~repro.core.engine.AnytimeAnywhereCloseness.run` enters a
:class:`Supervisor` as a context manager.  It owns the run's
:class:`~repro.runtime.chaos.FaultInjector`, its
:class:`~repro.runtime.health.HealthMonitor` when there is one, and the
recovery ladder.  Entering installs the injector as ``cluster.chaos``,
the monitor as ``cluster.health`` and the plan's straggler slowdowns;
leaving restores the reliable network, ``cluster.health = None`` and the
configured speeds — also when the run raises.  A fault-free run enters
the null instance every cluster builds once (``cluster.fault_free``): no
faults, no monitor, no crashes, no events.

At the start of every RC step the supervisor fires the crashes the plan
schedules and answers each with the next rung of its policy's ladder
(a rank's n-th crash takes rung ``min(n, len(ladder))``), charging the
rung's true LogP cost to the modeled clock:

``warm``
    Re-ship the sub-graph, rerun the IA-phase local Dijkstra, re-wire
    subscriptions (the seed repo's original recovery).
``checkpoint``
    Every ``checkpoint_interval`` RC steps each rank ships a copy of its
    derived state (DV + local APSP) to its buddy rank ``(r+1) % P`` — an
    in-memory checkpoint.  A crashed rank restores from the buddy's copy,
    skipping the Dijkstra rerun; only boundary traffic from after the
    checkpoint must be refreshed.  Snapshots are dropped when deletions
    or re-weightings land (saved rows would stop being upper bounds) and
    fall back to ``warm`` per rank whose block changed since the save.
``redistribute``
    Degraded mode: no replacement process.  The dead rank's sub-graph
    migrates to the survivors and the computation finishes on P−1
    processors.

The fixed policies are one-rung ladders; ``escalate`` climbs warm →
checkpoint → redistribute per rank, and only it has budgets: when a rank
exhausts its :attr:`~repro.runtime.health.HealthPolicy.crash_budget`, or
retiring one more rank would push the dead fraction past
``max_dead_fraction``, the supervisor stops recovering and flags the run
degraded — the engine then returns a partial result instead of raising.
Its recoveries also carry their rung position as ``rung`` phase info.

Checkpointing is ordered *before* same-step crashes, so a checkpoint
scheduled at a crash step is taken from live state, not wiped state.
All decisions are deterministic functions of the plan and the cluster
state, preserving the injector's byte-identical event traces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple

from ..types import Rank
from .chaos import FaultInjector
from .faults import (
    abandon_worker,
    crash_worker,
    recover_worker,
    recover_worker_from_snapshot,
    redistribute_worker,
)
from .health import HealthMonitor, HealthPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..core.checkpoint import ClusterStateSnapshot
    from ..core.config import ResilienceConfig
    from ..graph.changes import ChangeBatch
    from .cluster import Cluster

__all__ = ["LADDERS", "Supervisor"]

#: the rungs each recovery policy climbs, per rank
LADDERS: Dict[str, Tuple[str, ...]] = {
    "warm": ("warm",),
    "checkpoint": ("checkpoint",),
    "redistribute": ("redistribute",),
    "escalate": ("warm", "checkpoint", "redistribute"),
}


class Supervisor:
    """A run's fault injector, health monitor and recovery ladder.

    ``resilience`` is the run's
    :class:`~repro.core.config.ResilienceConfig`; without one, or
    without a ``fault_plan`` in it, this is the null policy.  ``health``
    is ``config.health``: it instruments fault-injected runs only, and
    ``escalate`` builds a default policy when none is given (the ladder
    needs its budgets).
    """

    def __init__(
        self,
        cluster: "Cluster",
        resilience: Optional["ResilienceConfig"] = None,
        health: Optional[HealthPolicy] = None,
    ) -> None:
        plan = None if resilience is None else resilience.fault_plan
        self.cluster = cluster
        self.injector = FaultInjector(plan, cluster.nprocs)
        self.ladder = LADDERS["warm"]
        self.checkpoint_interval = 1
        self.monitor: Optional[HealthMonitor] = None
        #: whether an exhausted retry budget degrades instead of raising
        self.degrades_gracefully = False
        #: crash budget and dead-fraction limit (``escalate`` only)
        self.budgets: Optional[HealthPolicy] = None
        if resilience is not None and plan is not None:
            self.ladder = LADDERS[resilience.recovery]
            self.checkpoint_interval = resilience.checkpoint_interval
            if len(self.ladder) > 1:
                self.budgets = health = health or HealthPolicy()
            if health is not None:
                self.monitor = HealthMonitor(
                    health, cluster.nprocs, seed=plan.seed
                )
                self.degrades_gracefully = health.graceful_degradation
        self._checkpointing = "checkpoint" in self.ladder
        self._snapshot: Optional["ClusterStateSnapshot"] = None
        #: crashes answered so far, per rank (the ladder position)
        self.crash_counts: Dict[Rank, int] = {}
        #: ranks retired by redistribution / budget exhaustion
        self.dead_ranks: Set[Rank] = set()
        self.recoveries = 0
        self.recovery_modeled_seconds = 0.0
        #: recoveries and modeled seconds per ladder rung
        self.recoveries_by_rung: Dict[str, int] = {}
        self._rung_seconds: Dict[str, float] = {}
        #: non-empty once the run can no longer be recovered; the RC loop
        #: stops at the next step boundary and returns a partial result
        self.degraded_reason = ""

    # ------------------------------------------------------------------
    # the run context
    # ------------------------------------------------------------------
    def __enter__(self) -> "Supervisor":
        cluster = self.cluster
        cluster.chaos = self.injector
        cluster.health = self.monitor
        stragglers = self.injector.plan.stragglers
        if stragglers:
            cluster.reference_speeds = [w.speed for w in cluster.workers]
            for rank, factor in stragglers:
                cluster.workers[rank].speed /= factor
        return self

    def __exit__(self, *exc_info: object) -> None:
        cluster = self.cluster
        cluster.chaos = cluster.fault_free.injector
        cluster.health = None
        if cluster.reference_speeds is not None:
            for w, speed in zip(cluster.workers, cluster.reference_speeds):
                w.speed = speed
            cluster.reference_speeds = None
        if not self.injector.reliable:
            # rows still awaiting an ack move back to the pending queues,
            # so the next exchange completes their delivery
            for w in cluster.workers:
                w.requeue_in_flight()

    # ------------------------------------------------------------------
    # the RC loop's hooks
    # ------------------------------------------------------------------
    @property
    def last_crash_step(self) -> int:
        """Latest scheduled crash step (the RC loop must live this long)."""
        return self.injector.last_crash_step

    def before_step(self, step: int) -> None:
        """RC-step preamble: periodic checkpoint, then scheduled crashes."""
        self.injector.begin_step(step)
        if self._checkpointing and step % self.checkpoint_interval == 0:
            self._take_checkpoint(step)
        for rank in self.injector.crashes_at(step):
            self._handle_crash(step, rank)

    def note_batch(self, batch: "ChangeBatch") -> None:
        """Observe an applied change batch.

        Deletions and re-weightings can *increase* true distances, so DV
        rows saved before such a batch are no longer guaranteed upper
        bounds; the snapshot must be dropped.  Additions only shorten
        distances and append columns, which restore handles by padding.
        """
        if (
            batch.edge_deletions
            or batch.edge_reweights
            or batch.vertex_deletions
        ):
            self._snapshot = None

    def degrade(self, step: int, reason: str, rank: Rank = -1) -> None:
        """Stop recovering: flag the run for graceful degradation."""
        if not self.degraded_reason:
            self.degraded_reason = reason
        self.injector.record_degraded(step, reason, rank)

    # ------------------------------------------------------------------
    # what the run reports
    # ------------------------------------------------------------------
    @property
    def mttr_by_rung(self) -> Dict[str, float]:
        """Mean modeled time-to-recovery per ladder rung."""
        return {
            rung: self._rung_seconds[rung] / count
            for rung, count in sorted(self.recoveries_by_rung.items())
            if count
        }

    def accounting(self) -> Dict[str, Any]:
        """The run's fault, recovery and health accounting, as
        :class:`~repro.core.engine.RunResult` fields (zeros when the run
        had no plan or no monitor)."""
        monitor = self.monitor
        return {
            "faults_injected": self.injector.stats.faults_injected,
            "retries": self.injector.stats.retries,
            "recoveries": self.recoveries,
            "recovery_modeled_seconds": self.recovery_modeled_seconds,
            "degraded_reason": self.degraded_reason,
            "missed_deadlines": monitor.missed_deadlines if monitor else 0,
            "speculations": monitor.speculations if monitor else 0,
            "backoff_modeled_seconds": (
                monitor.backoff_seconds if monitor else 0.0
            ),
            "recoveries_by_rung": dict(self.recoveries_by_rung),
            "mttr_by_rung": self.mttr_by_rung,
            "fault_events": self.injector.trace_lines(),
        }

    # ------------------------------------------------------------------
    def _take_checkpoint(self, step: int) -> None:
        from ..core.checkpoint import snapshot_cluster_state

        cluster = self.cluster
        cluster.tracer.begin("checkpoint", step)
        snap = snapshot_cluster_state(cluster, step)
        if cluster.nprocs > 1:
            cluster.charge_comm_words(
                [
                    (r, (r + 1) % cluster.nprocs, snap.words(r))
                    for r in range(cluster.nprocs)
                ]
            )
        cluster.tracer.end()
        self._snapshot = snap

    def _snapshot_usable_for(self, rank: Rank) -> bool:
        snap = self._snapshot
        cluster = self.cluster
        if snap is None or cluster.partition is None:
            return False
        if not snap.compatible_with(cluster):
            return False
        return snap.owned.get(rank) == tuple(cluster.partition.block(rank))

    def _handle_crash(self, step: int, rank: Rank) -> None:
        """Answer one crash with the next rung of the policy's ladder."""
        cluster = self.cluster
        self.injector.record_crash(step, rank)
        if rank in self.dead_ranks:
            # retired already: the crash happens, nothing to recover
            return
        count = self.crash_counts[rank] = self.crash_counts.get(rank, 0) + 1
        position = min(count, len(self.ladder))
        rung = self.ladder[position - 1]
        budgets = self.budgets
        if budgets is not None:
            if count > budgets.crash_budget:
                self._give_up(step, rank, "crash-budget")
                return
            if rung == "redistribute" and (
                (len(self.dead_ranks) + 1) / cluster.nprocs
                > budgets.max_dead_fraction
            ):
                # retiring the rank would leave too few survivors
                self._give_up(step, rank, "dead-fraction")
                return
        rec = cluster.tracer.begin("fault_recovery", step)
        crash_worker(cluster, rank)
        if rung == "redistribute":
            redistribute_worker(cluster, rank, exclude=self.dead_ranks)
            self._retire(rank)
        elif rung == "checkpoint" and self._snapshot_usable_for(rank):
            assert self._snapshot is not None
            recover_worker_from_snapshot(cluster, rank, self._snapshot)
        else:
            # a checkpoint rung without a usable snapshot (none taken yet,
            # dropped by deletions, or the block changed since the save)
            # restarts warm instead
            recover_worker(cluster, rank)
            if rung == "checkpoint":
                rung = "warm-fallback"
        if len(self.ladder) > 1:
            rec.info["rung"] = float(position)
        cluster.tracer.end()
        seconds = rec.modeled_total
        self.recoveries += 1
        self.recovery_modeled_seconds += seconds
        by_rung = self.recoveries_by_rung
        by_rung[rung] = by_rung.get(rung, 0) + 1
        self._rung_seconds[rung] = self._rung_seconds.get(rung, 0.0) + seconds
        self.injector.record_recovery(step, rank, rung)

    def _retire(self, rank: Rank) -> None:
        self.dead_ranks.add(rank)
        if self.monitor is not None:
            self.monitor.mark_dead(rank)

    def _give_up(self, step: int, rank: Rank, reason: str) -> None:
        """Retire ``rank`` unrecovered and degrade the run."""
        abandon_worker(self.cluster, rank)
        self._retire(rank)
        self.degrade(step, reason, rank)
