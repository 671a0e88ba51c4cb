"""Worker-failure injection and recovery mechanisms.

The paper's future work (§VI): "investigate anytime anywhere methodologies
to handle issues such as fault tolerance in the cloud".  The anytime
framework makes warm recovery natural:

* a crash destroys only *derived* state (the worker's DV matrix, local
  APSP, received boundary rows) — the graph itself is durable input;
* the surviving workers' DV entries are still **valid upper bounds**
  (distances did not change), so nothing needs invalidation;
* the recovered worker reloads its sub-graph, reruns its IA-phase local
  APSP, and the normal RC iterations restore everything else: neighbors
  re-send their subscribed boundary rows and relaxation re-derives the
  crashed worker's remote distances.

This module provides the three *mechanisms* the supervisor's policies are
built from — :func:`recover_worker` (warm IA rerun),
:func:`recover_worker_from_snapshot` (restore from an in-memory
checkpoint, skipping the Dijkstra rerun), and :func:`redistribute_worker`
(degraded mode: the dead block migrates to the survivors and the
computation continues on P−1 processors).  Recovery cost is charged
honestly in every case: sub-graph re-distribution words, any fresh local
Dijkstra, snapshot-shipping words, and the boundary-row refresh traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Dict, Tuple

import numpy as np

from ..errors import RuntimeSimulationError
from ..graph.views import LocalSubgraph, extract_local_subgraph
from ..partition.base import Partition
from ..types import FloatArray, Rank
from .debug import check_cluster_invariants

if TYPE_CHECKING:  # pragma: no cover
    from ..core.checkpoint import ClusterStateSnapshot
    from .cluster import Cluster

__all__ = [
    "abandon_worker",
    "crash_worker",
    "recover_worker",
    "recover_worker_from_snapshot",
    "redistribute_worker",
    "crash_and_recover",
]


def crash_worker(cluster: "Cluster", rank: Rank) -> None:
    """Simulate a crash: all derived state on ``rank`` is destroyed.

    The worker object survives as the "replacement process" slot, but its
    DV matrix, local APSP, external rows, queues and subscriptions are
    gone.  Peers' channels *to* this rank reset (in-flight messages and
    sequence state are lost with the process; the connection re-forms
    from sequence 0 on recovery).
    """
    if not 0 <= rank < cluster.nprocs:
        raise RuntimeSimulationError(f"no worker with rank {rank}")
    w = cluster.workers[rank]
    n_cols = cluster.n_columns
    w.wipe_entries(n_cols)
    w.local_apsp = np.zeros((0, 0), dtype=np.float64)
    w.ext_dvs.clear()
    w._fresh_ext.clear()
    w._changed_rows.clear()
    w._dirty_cols = np.zeros(n_cols, dtype=bool)
    w.subscribers = {}
    w.take_compute_seconds()  # drop any un-synced metering
    for peer in cluster.workers:
        w.reset_channel(peer.rank)
        if peer.rank != rank:
            peer.reset_channel(rank)


def abandon_worker(cluster: "Cluster", rank: Rank) -> None:
    """Crash ``rank`` permanently — no recovery will follow.

    The graceful-degradation exits (crash budget exhausted, dead-fraction
    limit) retire a rank for good.  A plain :func:`crash_worker` leaves
    the cluster structurally inconsistent — all-+inf DV rows (own
    diagonal included) and an empty subscription map — which makes the
    invariant audit of any *later* recovery of a surviving rank fail on
    state the dead rank will never repair.  Abandonment therefore
    restores the two structural facts that are durable knowledge and
    cost nothing:

    * the own-diagonal zeros (d(v, v) = 0 needs no computation);
    * the owner-side subscription records (who *would* receive each
      boundary row) — records only, no rows are queued: a dead process
      sends nothing.

    Every other DV entry stays +inf, which is exactly what the degraded
    result's quality accounting reports as undelivered.
    """
    crash_worker(cluster, rank)
    w = cluster.workers[rank]
    for v in w.owned:
        w.dv[w.row_of[v], cluster.index.column(v)] = 0.0
    for peer in cluster.workers:
        if peer.rank == rank:
            continue
        for x in peer.cut_by_ext:
            if cluster.owner_of(x) == rank:
                w.record_subscriber(x, peer.rank)


def recover_worker(cluster: "Cluster", rank: Rank) -> None:
    """Warm-restart ``rank`` from durable inputs and anytime reuse.

    1. the coordinator re-ships the sub-graph (comm charged),
    2. the worker reloads it and reruns the IA local APSP,
    3. boundary-DV subscriptions are re-wired in *both* directions and all
       relevant rows are queued for refresh,
    so a subsequent recombination run re-converges to the exact solution.
    The cluster invariant audit runs at the end — a recovery that leaves
    the cluster structurally inconsistent must fail loudly, not converge
    to silently wrong centralities.
    """
    if cluster.partition is None:
        raise RuntimeSimulationError("cluster has not been decomposed")
    w = cluster.workers[rank]
    _reship_subgraph(cluster, rank)
    w.run_initial_approximation()
    _rewire_rank(cluster, rank)
    cluster.sync_compute()
    check_cluster_invariants(cluster)


def recover_worker_from_snapshot(
    cluster: "Cluster", rank: Rank, snapshot: "ClusterStateSnapshot"
) -> None:
    """Restore ``rank`` from an in-memory checkpoint (no Dijkstra rerun).

    The buddy rank ``(rank+1) % P`` holds the snapshot copy and ships it
    back (comm charged by :meth:`ClusterStateSnapshot.words`).  Saved DV
    rows are valid upper bounds as long as no deletion happened since the
    snapshot (the supervisor drops stale snapshots); columns added since
    are padded with +inf and refreshed by the normal post-recovery
    boundary traffic.  The saved local APSP is reused only if the local
    sub-graph is structurally unchanged; otherwise it is recomputed.
    """
    if cluster.partition is None:
        raise RuntimeSimulationError("cluster has not been decomposed")
    if not snapshot.compatible_with(cluster):
        raise RuntimeSimulationError(
            "snapshot columns are not a prefix of the current index"
        )
    saved_dv = snapshot.dv.get(rank)
    saved_owned = snapshot.owned.get(rank)
    if saved_dv is None or saved_owned is None:
        raise RuntimeSimulationError(f"snapshot holds no state for {rank}")
    w = cluster.workers[rank]
    sub = _reship_subgraph(cluster, rank)
    if tuple(w.owned) != saved_owned:
        raise RuntimeSimulationError(
            f"snapshot block for rank {rank} no longer matches the partition"
        )
    # the buddy ships the saved state back to the replacement process
    buddy = (rank + 1) % cluster.nprocs
    if buddy != rank:
        cluster.charge_comm_words([(buddy, rank, snapshot.words(rank))])
    n_saved = snapshot.n_cols
    np.minimum(
        w.dv[:, :n_saved], saved_dv, out=w.dv[:, :n_saved]
    )
    saved_apsp = snapshot.apsp.get(rank)
    if (
        saved_apsp is not None
        and saved_apsp.shape == (w.n_local, w.n_local)
        and snapshot.local_edges.get(rank) == sub.local_graph.num_edges
    ):
        w.local_apsp = saved_apsp.copy()
        w.restore_local_baseline()
    else:
        # local structure changed since the snapshot: Dijkstra is due
        w.run_initial_approximation()
    # everything restored must flow to subscribers and re-propagate
    w.request_full_repropagate()
    _rewire_rank(cluster, rank)
    # sorted for replay determinism: _queue_row only adds to per-channel
    # sets today, but iterating a dict in rebuild order would make this
    # path's behavior hostage to _rewire_rank's wiring order
    for v in sorted(w.subscribers):
        w._queue_row(v)
    cluster.sync_compute()
    check_cluster_invariants(cluster)


def redistribute_worker(
    cluster: "Cluster", rank: Rank, *, exclude: Container[Rank] = ()
) -> None:
    """Degraded-mode recovery: migrate the dead block to the survivors.

    Instead of restarting a replacement process, the dead rank's vertices
    are reassigned to surviving workers (neighbor-majority placement, ties
    to the least-loaded survivor) and the computation continues on P−1
    processors.  Survivors keep their DV rows (anytime reuse); the
    migrated vertices restart from +inf, exactly as a warm restart of a
    smaller block would.  ``exclude`` lists additional ranks that must not
    receive vertices (earlier redistributed failures).
    """
    if cluster.partition is None:
        raise RuntimeSimulationError("cluster has not been decomposed")
    survivors = [
        r
        for r in range(cluster.nprocs)
        if r != rank and r not in exclude
    ]
    if not survivors:
        raise RuntimeSimulationError("no surviving workers to redistribute to")
    dead_block = cluster.partition.block(rank)
    new_assignment = dict(cluster.partition.assignment)
    loads = {
        r: cluster.workers[r].n_local / cluster.workers[r].speed
        for r in survivors
    }
    survivor_set = set(survivors)
    ship_words: Dict[Rank, int] = {}
    ops = 0
    for v in dead_block:
        votes: Dict[Rank, int] = {}
        for u, _w in cluster.graph.neighbor_items(v):
            r = new_assignment.get(u)
            ops += 1
            if r in survivor_set:
                votes[r] = votes.get(r, 0) + 1
        if votes:
            best = max(votes.values())
            # iterating votes (dict) is safe here: min() with the
            # (load, rank) key is order-independent — ties break on the
            # rank itself, never on encounter order
            dst = min(
                (r for r, c in votes.items() if c == best),
                key=lambda r: (loads[r], r),
            )
        else:
            dst = min(survivors, key=lambda r: (loads[r], r))
        new_assignment[v] = dst
        loads[dst] += 1.0 / cluster.workers[dst].speed
        ship_words[dst] = (
            ship_words.get(dst, 0) + 1 + 3 * cluster.graph.degree(v)
        )
    cluster.charge_serial_compute(cluster.cost.scan_time(ops))
    # the coordinator re-ships the migrated adjacency from durable input
    cluster.charge_comm_words(
        [(0, dst, words) for dst, words in sorted(ship_words.items())]
    )
    rows = {
        v: w.dv[w.row_of[v]].copy()
        for w in cluster.workers
        if w.rank != rank
        for v in w.owned
    }
    touched = set(ship_words) | {rank}
    saved: Dict[Rank, Tuple[Tuple[int, ...], FloatArray]] = {
        w.rank: (tuple(w.owned), w.local_apsp)
        for w in cluster.workers
        if w.rank not in touched
    }
    cluster.install_partition(
        Partition(cluster.nprocs, new_assignment), seed_rows=rows
    )
    for w in cluster.workers:
        kept = saved.get(w.rank)
        if kept is not None and kept[0] == tuple(w.owned):
            w.local_apsp = kept[1]
            w.restore_local_baseline()
        else:
            w.recompute_local_apsp()
        w.queue_all_boundary_rows()
    cluster.sync_compute()
    check_cluster_invariants(cluster)


def crash_and_recover(cluster: "Cluster", rank: Rank) -> None:
    """Crash ``rank`` and immediately warm-restart it (one fault event)."""
    rec_open = cluster.tracer._open is None
    if rec_open:
        cluster.tracer.begin("fault_recovery")
    crash_worker(cluster, rank)
    recover_worker(cluster, rank)
    if rec_open:
        cluster.tracer.end()


# ----------------------------------------------------------------------
# shared recovery plumbing
# ----------------------------------------------------------------------
def _reship_subgraph(cluster: "Cluster", rank: Rank) -> LocalSubgraph:
    """Re-ship ``rank``'s sub-graph from the coordinator and reload it."""
    w = cluster.workers[rank]
    if cluster.partition is None:
        raise RuntimeSimulationError(
            "cluster has no installed partition to re-ship"
        )
    owned = cluster.partition.block(rank)
    sub = extract_local_subgraph(
        cluster.graph, owned, cluster.partition.assignment, rank
    )
    words = len(owned) + 3 * sub.local_graph.num_edges + 3 * len(sub.cut_edges)
    cluster.charge_comm_words([(0, rank, words)])
    w.load_subgraph(sub)
    return sub


def _rewire_rank(cluster: "Cluster", rank: Rank) -> None:
    """Re-wire boundary subscriptions of ``rank`` in both directions.

    Peers' stale subscription entries naming ``rank`` are cleared first so
    repeated crash/recover of the same rank cannot accumulate duplicate
    subscriptions or resurrect queues aimed at the dead incarnation.
    """
    w = cluster.workers[rank]
    for peer in cluster.workers:
        if peer.rank != rank:
            peer.unsubscribe_rank(rank)
    # cut_by_ext iterates in load_subgraph's insertion order, which is a
    # pure function of the (sorted) local sub-graph — deterministic, and
    # subscribe() itself is order-insensitive (keyed dict of sets)
    for x in w.cut_by_ext:
        cluster.workers[cluster.owner_of(x)].subscribe(x, rank)
    for peer in cluster.workers:
        if peer.rank == rank:
            continue
        for x in peer.cut_by_ext:
            if cluster.owner_of(x) == rank:
                w.subscribe(x, peer.rank)
