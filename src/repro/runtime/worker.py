"""A simulated processor: local sub-graph, distance vectors, kernels.

Each worker owns a block of vertices and maintains:

* ``local_graph`` — the induced graph on its owned vertices,
* ``cut`` — its cut edges, indexed by their *external boundary* endpoint
  (owned elsewhere): ``cut[x][u]`` is the weight of edge ``(u, x)``,
* ``entries`` — its :class:`~repro.runtime.entries.EntryStore`, which
  owns the matrices and every change of their shape: ``dv``
  (``dv[row_of[v], index.col[t]]`` bounds ``d(v, t)``), ``dv_changed``
  (the entries lowered since the last fold, all an incremental fold
  pushes; a full fold re-derives the block), ``local_apsp`` (exact
  distances **within** the local sub-graph) and the last received row of
  every external boundary vertex; ``dv`` / ``local_apsp`` /
  ``dv_changed`` read through to it,
* ``channels`` — one :class:`~repro.runtime.channel.Channel` per peer
  rank: subscriptions, the pending queue, delta baselines, and the
  sequence / ack / dedup state of the boundary exchange.

All kernels are vectorized NumPy and meter their operation counts into the
:class:`~repro.model.cost.CostModel`, which is how modeled per-step compute
time is obtained.

Monotonicity invariant: every ``dv`` entry only ever decreases (except for
the explicit deletion-invalidation path), which is what gives the algorithm
its *anytime* property — interrupted results are valid upper bounds whose
error shrinks monotonically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import WorkerError
from ..graph.graph import Graph
from ..graph.views import LocalSubgraph
from ..model.cost import CostModel
from ..types import BoolArray, FloatArray, Rank, VertexId
from .channel import Channel
from .entries import EntryStore
from .index import GlobalIndex
from .kernels import (
    KERNELS,
    IATask,
    IndexArray,
    RelaxItems,
    SuperstepResult,
    SuperstepTask,
    relax_edge_batch_kernel,
)
from .message import DeltaRows, delta_row_words, dense_row_words
from .shm import ArrayAllocator

__all__ = ["Worker"]


class Worker:
    """One simulated processor of the anytime-anywhere cluster."""

    def __init__(
        self,
        rank: Rank,
        nprocs: int,
        index: GlobalIndex,
        cost: CostModel,
        *,
        wire_format: str = "delta",
        allocator: Optional[ArrayAllocator] = None,
    ) -> None:
        if wire_format not in ("dense", "delta"):
            raise WorkerError(f"unknown wire format {wire_format!r}")
        self.rank = rank
        self.nprocs = nprocs
        self.index = index
        self.cost = cost
        #: boundary-row encoding: "delta" sends only improved columns
        #: (with dense fallback); "dense" is the reference oracle
        self.wire_format = wire_format
        #: relative processor speed (2.0 = twice the reference core);
        #: modeled compute charges divide by it — the heterogeneous-cloud
        #: extension of the paper's load-balance analysis
        self.speed = 1.0

        self.owned: List[VertexId] = []
        self.row_of: Dict[VertexId, int] = {}
        self.local_graph = Graph()
        #: external vertex -> {local vertex: weight}, one entry per cut edge
        self.cut: Dict[VertexId, Dict[VertexId, float]] = {}
        #: the boundary channel to each peer rank, indexed by rank
        self.channels: List[Channel] = [Channel() for _ in range(nprocs)]

        #: the matrices, in the allocator's residency: the process backend
        #: passes a shared-memory one so kernel subprocesses can attach
        self.entries = EntryStore(allocator or ArrayAllocator())

        # --- per-step change tracking ---------------------------------
        # ``_changed_rows`` / ``entries.dirty_cols`` / ``_full_repropagate``
        # decide *whether* the next superstep folds (and is charged);
        # ``_full_repropagate`` also decides its kind: re-derive the block,
        # or push what ``dv_changed`` marks
        self._changed_rows: Set[int] = set()
        self._fresh_ext: Set[VertexId] = set()
        self._full_repropagate = False

        # --- metering --------------------------------------------------
        self._seconds = 0.0
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # metering helpers
    # ------------------------------------------------------------------
    def _charge(self, seconds: float, counter: Optional[str] = None, n: int = 1) -> None:
        self._seconds += seconds / self.speed
        if counter:
            self.counters[counter] = self.counters.get(counter, 0) + n

    def take_compute_seconds(self) -> float:
        """Drain and return modeled compute seconds accrued since last call."""
        s = self._seconds
        self._seconds = 0.0
        return s

    @property
    def n_local(self) -> int:
        return len(self.owned)

    @property
    def n_cols(self) -> int:
        return self.dv.shape[1]

    # the store's arrays, read through (each changes shape in the store)
    @property
    def dv(self) -> FloatArray:
        return self.entries.dv

    @property
    def local_apsp(self) -> FloatArray:
        return self.entries.local_apsp

    @property
    def dv_changed(self) -> BoolArray:
        """Every writer that lowers a ``dv`` entry outside a kernel fold
        marks it here, unless it also requests a full fold."""
        return self.entries.dv_changed

    # ------------------------------------------------------------------
    # loading / domain decomposition
    # ------------------------------------------------------------------
    def load_subgraph(
        self,
        sub: LocalSubgraph,
        *,
        seed_rows: Optional[Dict[VertexId, FloatArray]] = None,
    ) -> None:
        """Install a local sub-graph (DD phase, or Repartition-S rebuild).

        ``seed_rows`` carries migrated partial results: DV rows computed by
        previous owners, reused thanks to the anytime property.
        """
        self.owned = list(sub.owned)
        self.row_of = {v: i for i, v in enumerate(self.owned)}
        self.local_graph = sub.local_graph.copy()
        self.cut = {}
        for u, x, w in sub.cut_edges:
            self.cut.setdefault(x, {})[u] = w
        self.channels = [Channel() for _ in range(self.nprocs)]
        n_cols = len(self.index)
        self.entries.reset(self.n_local, n_cols)
        self.zero_own_distances()
        if seed_rows:
            for v, row in seed_rows.items():
                r = self.row_of.get(v)
                if r is None:
                    raise WorkerError(f"seed row for non-owned vertex {v}")
                if row.size != n_cols:
                    raise WorkerError(
                        f"seed row for {v} has {row.size} cols, expected {n_cols}"
                    )
                np.minimum(self.dv[r], row, out=self.dv[r])
        self._changed_rows = set()
        self._fresh_ext = set()
        self._full_repropagate = False

    def zero_own_distances(self) -> None:
        """``d(v, v) = 0`` for every owned ``v`` — the one DV fact that
        needs no computation."""
        self.dv[np.arange(self.n_local), self.index.columns(self.owned)] = 0.0

    def restore_state(
        self, saved_apsp: Optional[FloatArray], saved_dv: Optional[FloatArray] = None
    ) -> None:
        """Re-enter saved state into a freshly loaded block.

        ``saved_dv`` (rows in ``owned`` order, over a column prefix of
        ``dv``) is merged with ``np.minimum`` — saved entries are upper
        bounds.  ``saved_apsp`` — an array no one else holds — is adopted
        when it still fits the block and its local baseline re-applied;
        otherwise IA reruns.  Either way a full re-propagation is due, and
        every subscribed row is queued for a dense refresh.
        """
        if saved_dv is not None:
            prefix = self.dv[:, : saved_dv.shape[1]]
            np.minimum(prefix, saved_dv, out=prefix)
        n = self.n_local
        if saved_apsp is not None and saved_apsp.shape == (n, n):
            self.entries.adopt_apsp(saved_apsp)
            self.restore_local_baseline()
        else:
            self.recompute_local_apsp()
        self.queue_all_boundary_rows()

    # ------------------------------------------------------------------
    # IA phase
    # ------------------------------------------------------------------
    def run_initial_approximation(self) -> None:
        """Local APSP (multithreaded Dijkstra in the paper) on the sub-graph."""
        self._local_apsp_fold(repropagate=False)

    def recompute_local_apsp(self) -> None:
        """Full local APSP recomputation (deletions, repartition rebuilds)."""
        self._local_apsp_fold(repropagate=True)

    def _local_apsp_fold(self, *, repropagate: bool) -> None:
        """Shared IA body: CSR build, local APSP, fold into ``dv``.

        ``repropagate=False`` is the IA phase proper (seed the change
        tracking and queue every boundary row); ``repropagate=True`` is
        the recomputation flavor (local structure changed, so schedule a
        full re-propagation with dense channel resets).
        """
        task = self.ia_prepare()
        if task is None:
            return
        KERNELS.ia_kernel(task, self.dv, self.local_apsp)
        self.ia_apply(task, repropagate=repropagate)

    def ia_prepare(self) -> Optional[IATask]:
        """Snapshot this rank's IA work; ``None`` when nothing is owned.

        Pre-allocates ``local_apsp`` at its final ``(n, n)`` shape so a
        kernel subprocess can write the local APSP rows straight into
        the (possibly shared-memory) destination.
        """
        n = self.n_local
        if n == 0:
            self.entries.adopt_apsp(np.zeros((0, 0), dtype=np.float64))
            return None
        csr = self.local_graph.to_csr(self.owned).csr
        cols = np.fromiter(
            (self.index.column(v) for v in self.owned), dtype=np.intp, count=n
        )
        self.entries.adopt_apsp(self.entries.allocator.empty((n, n)), csr)
        return IATask(matrix=csr, cols=cols, n=n, nnz=csr.nnz)

    def ia_apply(self, task: IATask, *, repropagate: bool = False) -> None:
        """Post-kernel charges and bookkeeping for one IA task."""
        n = task.n
        self._charge(
            self.cost.dijkstra_time(n, n, task.nnz), "dijkstra_sources", n
        )
        self._charge(self.cost.relax_time(n * n))
        if repropagate:
            self.request_full_repropagate()
            return
        # everything we own changed: queue full boundary DVs for neighbors.
        # The first fold is declared over every row and column, but no
        # entry is marked in ``dv_changed``: Dijkstra's block is already
        # closed under ``local_apsp``, so that fold visits only what the
        # first cut-edge relaxation lowers.
        self._changed_rows = set(range(n))
        self.entries.dirty_cols[:] = True
        self._queue_rows(range(n))

    # ------------------------------------------------------------------
    # change tracking / messaging
    # ------------------------------------------------------------------
    def _queue_rows(self, rows: Iterable[int]) -> None:
        """Queue the DV rows at ``rows`` on every channel subscribed to
        them (sets: the payload is built in sorted vertex order)."""
        vertices = {self.owned[r] for r in rows}
        for ch in self.channels:
            ch.queue(vertices)

    def _mark_rows_changed(self, rows: List[int]) -> None:
        self._changed_rows.update(rows)
        self._queue_rows(rows)

    def subscribe(self, v: VertexId, dst: Rank) -> None:
        """Rank ``dst`` wants updates of ``v``'s DV row from now on."""
        if v not in self.row_of:
            raise WorkerError(f"rank {self.rank} does not own vertex {v}")
        self.channels[dst].subscribe(v)

    def has_work(self) -> bool:
        """True while this worker still has work that could change results:
        rows queued to peers, unacknowledged in-flight rows, unprocessed
        received rows, or unpropagated local changes."""
        return (
            any(ch.pending or ch.unacked for ch in self.channels)
            or bool(self._changed_rows)
            or bool(self._fresh_ext)
            or self._full_repropagate
        )

    def pending_row_count(self) -> int:
        """Rows queued for the next boundary exchange (over all peers)."""
        return sum(len(ch.pending) for ch in self.channels)

    def unacked_row_count(self) -> int:
        """Rows in flight awaiting acknowledgement."""
        return sum(
            len(ids) for ch in self.channels for ids, _ in ch.unacked.values()
        )

    def _encode_row(self, ch: Channel, v: VertexId, out: DeltaRows) -> bool:
        """Encode ``v``'s current row for channel ``ch`` into ``out``.

        Dense on first publication (no baseline) and whenever the delta
        would not be strictly cheaper on the wire; otherwise the columns
        strictly below the channel baseline.  Advances the baseline to the
        encoded values.  Returns False when nothing needs sending (the
        row did not improve since the last send).  A dense row goes out as
        a view of ``dv`` (see :class:`~repro.runtime.message.DeltaRows`).
        """
        row = self.dv[self.row_of[v]]
        if self.wire_format != "delta":
            out.dense[v] = row
            return True
        baselines = ch.sent_rows
        base = baselines.get(v)
        if base is None or base.size != row.size:
            out.dense[v] = row
            baselines[v] = row.copy()
            return True
        self._charge(self.cost.encode_time(row.size), "delta_encodes")
        cols = np.flatnonzero(row < base).astype(np.int64)
        if cols.size == 0:
            return False
        if delta_row_words(int(cols.size)) >= dense_row_words(row.size):
            out.dense[v] = row
            baselines[v] = row.copy()
            return True
        vals = row[cols].copy()
        out.sparse[v] = (cols, vals)
        base[cols] = vals  # baseline == row again on every column
        return True

    def _reset_baselines(self) -> None:
        """Invalidate every channel baseline: the next sends are dense.

        Called whenever incremental deltas stop being trustworthy — a full
        refresh/re-propagation, a deletion pass that *raised* DV entries
        (breaking the monotone premise of the delta encoding), or a column
        remap.
        """
        for ch in self.channels:
            ch.sent_rows.clear()

    def build_payload(self, dst: Rank) -> DeltaRows:
        """Encoded DV rows queued for ``dst``; clears the queue.

        A queued vertex that migrated away since it was queued is
        skipped: its new owner re-sends it.
        """
        out = DeltaRows()
        ch = self.channels[dst]
        for v in sorted(ch.pending):
            if v in self.row_of:
                self._encode_row(ch, v, out)
        ch.pending.clear()
        return out

    def receive_rows(self, rows: DeltaRows) -> None:
        """Store freshly received external boundary DV rows.

        Dense rows are copied over the stored row, into a slot taken on
        the vertex's first dense receive (deletion flows rely on the
        replacement to *raise* stale entries); sparse deltas scatter-merge
        into it with ``np.minimum``.  A delta for a vertex without a
        stored row is dropped: the row is only absent when this worker no
        longer tracks it, and every path that re-creates the need
        (re-subscription, recovery, full refresh) forces a dense resend.
        """
        dense = rows.dense
        store = self.entries
        store.reserve(sum(1 for v in dense if v not in store.slot_of))
        for v, row in dense.items():
            if row.size != self.n_cols:
                raise WorkerError(
                    f"received row of {row.size} cols, expected {self.n_cols}"
                )
            store.put(v, row)
            self._fresh_ext.add(v)
        for v, (cols, vals) in rows.sparse.items():
            stored = store.row(v)
            if stored is None:
                continue
            if cols.size and int(cols[-1]) >= stored.size:
                raise WorkerError(
                    f"delta for vertex {v} addresses column {int(cols[-1])}"
                    f" beyond {stored.size} stored columns"
                )
            stored[cols] = np.minimum(stored[cols], vals)
            self._fresh_ext.add(v)

    # ------------------------------------------------------------------
    # sequenced channels (every boundary exchange; see
    # Cluster.exchange_boundary)
    # ------------------------------------------------------------------
    def outbound_packets(
        self, dst: Rank, max_retries: int
    ) -> List[Tuple[int, DeltaRows, int]]:
        """Sequenced packets to send to ``dst`` this exchange.

        Returns ``(seq, payload, attempt)`` triples: first every
        unacknowledged packet (a *retry*, attempt > 1 — rows are rebuilt
        **dense** from the current DV, which only sharpens the delivered
        upper bounds and stays correct even when the original delta was
        lost or the retransmission is deduplicated at the receiver), then
        at most one fresh packet draining the pending queue through
        :meth:`build_payload`.  The delta baseline advances at build
        time, which is safe because retries are dense and the baseline
        is never advanced past values the receiver could permanently
        miss.  The pending set moves into the unacked buffer, so the
        convergence vote cannot pass until delivery is acknowledged.

        Raises :class:`~repro.errors.WorkerError` once a packet exhausts
        ``max_retries`` — a partition, not a transient fault.
        """
        packets: List[Tuple[int, DeltaRows, int]] = []
        unacked = self.channels[dst].unacked
        for seq in sorted(unacked):
            sent, attempts = unacked[seq]
            ids = [v for v in sent if v in self.row_of]
            if not ids:
                # every vertex migrated away; its new owner re-sends
                del unacked[seq]
                continue
            n = attempts + 1
            unacked[seq] = (ids, n)
            if n > max_retries + 1:
                raise WorkerError(
                    f"rank {self.rank} packet seq={seq} to rank {dst}"
                    f" exceeded {max_retries} retries (network partition?)"
                )
            payload = DeltaRows(dense={v: self.dv[self.row_of[v]] for v in ids})
            packets.append((seq, payload, n))
        payload = self.build_payload(dst)
        if payload:
            seq = self.channels[dst].open_packet(payload.vertices())
            packets.append((seq, payload, 1))
        return packets

    def receive_packet(
        self,
        src: Rank,
        seq: int,
        rows: DeltaRows,
        floor: int = 0,
    ) -> bool:
        """Deliver a sequenced packet; returns False for a duplicate.

        ``floor`` is the sender's :attr:`Channel.send_floor` riding on
        the packet (see :meth:`Channel.accept`).
        """
        if not self.channels[src].accept(seq, floor):
            return False
        self.receive_rows(rows)
        return True

    def reset_channel(self, peer: Rank) -> None:
        """Forget all channel state with ``peer`` but the subscriptions:
        called when either endpoint crashes.  The connection re-forms from
        sequence 0, and the post-recovery refresh re-queues whatever was in
        flight."""
        self.channels[peer] = Channel(self.channels[peer].subscribed)

    def requeue_in_flight(self) -> None:
        """Move unacknowledged rows back to the pending queues.

        Used when a fault plan detaches mid-computation (e.g. an anytime
        budget interrupt): the next exchange delivers whatever was still
        in flight as one fresh packet instead of per-packet retries.
        """
        for ch in self.channels:
            ch.requeue_in_flight(self.row_of)

    # ------------------------------------------------------------------
    # RC superstep: prepare -> kernel (any backend) -> apply
    # ------------------------------------------------------------------
    def superstep_prepare(self) -> SuperstepTask:
        """Snapshot one RC superstep's inputs for the kernel.

        Consumes the fresh-external set but leaves the change-tracking
        flags in place; :meth:`superstep_apply` clears them once the
        kernel's outcome is known.  Re-exports a dropped ``local_csr``
        (``Graph.to_csr`` splices the rows that changed), so the task
        carries a current CSR wherever ``local_apsp`` is square.

        Relaxation order over fresh external rows must not depend on set
        hash order: min() is order-independent per entry, but the compute
        charges are traced per relaxation in loop order.
        """
        n, store = self.n_local, self.entries
        if store.local_csr is None and n and store.local_apsp.shape == (n, n):
            store.local_csr = self.local_graph.to_csr(self.owned).csr
        fresh = self._fresh_ext
        self._fresh_ext = set()
        items: RelaxItems = []
        slot_of = store.slot_of
        for x in sorted(fresh):
            edges = self.cut.get(x)
            slot = slot_of.get(x)
            if edges and slot is not None:
                items.append((slot, [(self.row_of[u], w) for u, w in edges.items()]))
        return SuperstepTask(
            n=n,
            relax_items=items,
            changed_rows=sorted(self._changed_rows),
            dirty_cols=store.dirty_cols.copy(),
            full_repropagate=self._full_repropagate,
            graph=store.local_csr,
        )

    def superstep_apply(
        self, task: SuperstepTask, result: SuperstepResult
    ) -> bool:
        """Charges + bookkeeping for a completed superstep kernel.

        One relax charge per cut-edge relaxation
        (``d(u, t) <- min(d(u, t), w(u, x) + d(x, t))`` for each cut edge
        ``(u, x)`` whose external row arrived), then the min-plus charge
        iff the local propagation fold ran; improved rows are queued to
        their subscribers.
        """
        for _ in range(task.n_relaxations):
            self._charge(self.cost.relax_time(self.n_cols))
        self._mark_rows_changed(result.relax_improved)
        # a superstep always ends with clean tracking state — the fold
        # either consumed it or had nothing to do — or an empty worker
        # would block the convergence vote forever
        self._full_repropagate = False
        self._changed_rows.clear()
        if self.entries.dirty_cols.size:
            self.entries.dirty_cols[:] = False
        if self.dv_changed.size:
            self.dv_changed[...] = False
        if result.prop_charged:
            # The paper's recombination strategy performs the full local
            # Floyd–Warshall-style DV update each active RC step, and the
            # modeled cost charges that dense fold whenever the flags
            # above declared one.  What an incremental fold visits is
            # narrower and decided by ``dv_changed`` alone: an entry d(k,t)
            # not lowered since it was last a fold source already
            # satisfies d(x,t) <= apsp(x,k) + d(k,t) for every x
            # (local_apsp is transitively closed), so only the lowered
            # entries are pushed.
            self._charge(self.cost.minplus_time(task.n, task.n, self.n_cols))
        # Improved rows need only be *sent* to subscribers, not re-used as
        # local sources: local_apsp is transitively closed, so chaining two
        # local hops can never beat the single-hop fold just performed.
        self._queue_rows(result.prop_improved)
        return result.improved

    def request_full_repropagate(self) -> None:
        """Make the next superstep's fold a full one: it re-derives the
        block and is charged over all rows/columns (called after local
        structural changes invalidate the incremental change tracking).
        The delta baselines are invalidated with it: a full re-propagation
        after a change that may raise entries pairs with a dense boundary
        refresh."""
        self._full_repropagate = True
        self._reset_baselines()

    # ------------------------------------------------------------------
    # dynamic changes: columns and vertices
    # ------------------------------------------------------------------
    def grow_columns(self, new_n_cols: int) -> None:
        """Extend DV (and stored external rows) to ``new_n_cols`` columns.

        Mirrors paper Fig. 3 lines 14/16: "ADD new column to DV and
        initialize to infinity".
        """
        added = new_n_cols - self.n_cols
        if added < 0:
            raise WorkerError("columns cannot shrink via grow_columns")
        if added == 0:
            return
        self.entries.add_columns(added)
        pad = np.full(added, np.inf, dtype=np.float64)
        # channel baselines grow in lockstep: the new columns are +inf on
        # both endpoints, so they enter future deltas only once they improve
        for ch in self.channels:
            ch.sent_rows = {
                v: np.concatenate([base, pad]) for v, base in ch.sent_rows.items()
            }
        self._charge(
            self.cost.resize_time(self.n_local + len(self.entries.slot_of), added),
            "dv_resizes",
        )

    def add_local_vertex(self, v: VertexId) -> int:
        """Add an owned vertex (paper Fig. 3 lines 12-14); returns its row."""
        if v in self.row_of:
            raise WorkerError(f"vertex {v} already owned by rank {self.rank}")
        if v not in self.index.col:
            raise WorkerError(f"vertex {v} missing from global index")
        r = self.entries.add_row()  # an isolated vertex in local APSP
        self.owned.append(v)
        self.row_of[v] = r
        self.local_graph.add_vertex(v)
        # the new row's one finite entry, d(v,v) = 0, is a new source
        col = self.index.column(v)
        self.dv[r, col] = 0.0
        self.dv_changed[r, col] = True
        self._charge(self.cost.vertex_time(1) + self.cost.resize_time(1, r + 1))
        self._mark_rows_changed([r])
        return r

    def add_local_edge(self, u: VertexId, v: VertexId, w: float) -> None:
        """Add an intra-partition edge; incrementally repair ``local_apsp``.

        The classic incremental-APSP relaxation: paths may now route
        through the new edge in either direction.
        """
        self.local_graph.add_edge(u, v, w)
        self.entries.local_csr = None  # stale: the next superstep re-exports it
        ru, rv = self.row_of[u], self.row_of[v]
        a = self.local_apsp
        n = a.shape[0]
        cand = np.minimum(
            a[:, ru][:, None] + w + a[rv][None, :],
            a[:, rv][:, None] + w + a[ru][None, :],
        )
        self._charge(self.cost.minplus_time(n, 2, n))
        improved = cand < a
        if improved.any():
            a[improved] = cand[improved]
            # entries outside dv_changed may now improve through the pairs
            # that fell: the next fold re-derives the block.  Every entry
            # only fell, so the delta channels stay valid
            self._full_repropagate = True
        # the new edge also immediately improves DV rows through it
        self._relax_dv_with_local_edge(ru, rv, w)

    def _relax_dv_with_local_edge(self, ru: int, rv: int, w: float) -> None:
        for src, dst in ((ru, rv), (rv, ru)):
            cand = self.dv[src] + w
            mask = cand < self.dv[dst]
            self._charge(self.cost.relax_time(self.n_cols))
            if mask.any():
                self.dv[dst][mask] = cand[mask]
                self.dv_changed[dst] |= mask
                self.entries.dirty_cols[mask] = True
                self._mark_rows_changed([dst])

    def add_cut_edge(self, u: VertexId, x: VertexId, w: float) -> None:
        """Register the cut edge from owned ``u`` to external ``x``; a
        re-add replaces its weight."""
        if u not in self.row_of:
            raise WorkerError(f"rank {self.rank} does not own {u}")
        self.cut.setdefault(x, {})[u] = w
        self._charge(self.cost.vertex_time(1))
        if x in self.entries.slot_of:
            self._fresh_ext.add(x)  # relax against the stored row next step

    def remove_cut_edge(self, u: VertexId, x: VertexId) -> None:
        """Forget the cut edge from ``u`` to ``x``; the last one to ``x``
        frees ``x``'s stored row."""
        edges = self.cut.get(x)
        if edges is not None:
            edges.pop(u, None)
            if not edges:
                self.drop_external_vertex(x)

    # ------------------------------------------------------------------
    # edge-addition / deletion relaxations (distributed, row broadcasts)
    # ------------------------------------------------------------------
    def relax_with_edge_rows(
        self,
        cols: IndexArray,
        closure: FloatArray,
        rows: FloatArray,
        edges: int,
    ) -> bool:
        """Edge-addition relaxation of a batch from broadcast endpoint rows
        [paper 9].

        ``cols`` are the columns of the batch's endpoints, ``closure``
        their closed distances through the new edges and ``rows`` their DV
        rows at the start of the batch (:func:`relax_edge_batch_kernel`):
        every owned ``x`` and target ``t`` take ``min_h d(x,h) (+)
        closure + row_h(t)`` (Fig. 3 lines 26-34 for every edge at once).
        """
        if self.n_local == 0:
            return False
        # The paper relaxes each of the batch's ``edges`` densely (every
        # owned row x every target), and the modeled cost charges that
        # once per orientation whatever the kernel skips — two additions
        # per edge, as Fig. 3 has them.
        for _ in range(2 * edges):
            self._charge(self.cost.relax_time(self.n_local * self.n_cols))
        rows_improved = relax_edge_batch_kernel(
            self.dv, self.dv_changed, self.entries.dirty_cols, cols, closure, rows
        )
        self._mark_rows_changed(rows_improved.tolist())
        return bool(rows_improved.size)

    def invalidate_for_deleted_edge(
        self,
        u: VertexId,
        row_u: FloatArray,
        v: VertexId,
        row_v: FloatArray,
        w: float,
    ) -> int:
        """Reset DV entries whose shortest path may have used edge (u, v).

        An entry ``d(x,t)`` is *suspect* iff ``d(x,u) + w + d(v,t) == d(x,t)``
        (either orientation): some shortest path crossed the deleted edge.
        Suspect entries are reset to +inf (except exact local distances and
        the diagonal, which are restored by the caller's local-APSP
        recomputation) and rebuilt by the next (full) fold and the RC steps
        after it.  Entries that are not suspect are untouched — their
        witnessing paths avoid the edge.
        """
        if self.n_local == 0:
            return 0
        to_u = self.dv[:, self.index.column(u)][:, None]
        to_v = self.dv[:, self.index.column(v)][:, None]
        self._charge(self.cost.relax_time(2 * self.n_local * self.n_cols))
        return self._invalidate(
            np.minimum(to_u + (w + row_v)[None, :], to_v + (w + row_u)[None, :])
        )

    def _invalidate(self, through: FloatArray) -> int:
        """Raise to +inf every finite off-diagonal entry witnessed by a
        through-path of length ``through``; returns how many."""
        # witnessed == the through-path length matches the stored distance.
        # Compare with a relative tolerance: float sums accumulate in
        # different orders on different workers, so exact equality can miss
        # a genuine witness by one ulp and leave a stale (too small)
        # distance alive.  `<=` also catches not-yet-relaxed entries, and
        # over-invalidating is always safe (the entry is just recomputed).
        suspect = through <= self.dv * (1.0 + 1e-12) + 1e-12
        suspect &= np.isfinite(self.dv)
        suspect[np.arange(self.n_local), self.index.columns(self.owned)] = False
        count = int(suspect.sum())
        if count:
            self.dv[suspect] = np.inf
            # entries just *rose*: deltas assume monotone decrease, so every
            # channel restarts dense (the deletion flows queue a full
            # boundary refresh right after this pass)
            self._reset_baselines()
        return count

    def restore_local_baseline(self) -> None:
        """Re-apply ``local_apsp`` to the owned columns of ``dv``.

        Used after an invalidation pass that may have wiped entries that
        are exact within the local sub-graph; also forces the next
        propagation to be full.  Unlike :meth:`recompute_local_apsp` it does
        not re-run Dijkstra — the local structure did not change.
        """
        n = self.n_local
        if n == 0:
            return
        cols = np.fromiter(
            (self.index.column(v) for v in self.owned), dtype=np.intp, count=n
        )
        # fancy indexing yields a copy, so an out= write would be lost;
        # assign the minimum back explicitly
        self.dv[:, cols] = np.minimum(self.dv[:, cols], self.local_apsp)
        self._charge(self.cost.relax_time(n * n))
        self.request_full_repropagate()

    def invalidate_through_vertex(self, x: VertexId, row_x: FloatArray) -> int:
        """Reset DV entries whose shortest path may route through ``x``.

        Used by vertex deletion: ``d(a,b)`` is suspect iff
        ``d(a,x) + d(x,b) == d(a,b)``.  Entries *to* and *from* ``x`` itself
        are left alone — the caller removes that row/column entirely.
        """
        if self.n_local == 0:
            return 0
        col_x = self.index.column(x)
        through = self.dv[:, col_x][:, None] + row_x[None, :]
        self._charge(self.cost.relax_time(self.n_local * self.n_cols))
        through[:, col_x] = np.inf  # never a witness
        if x in self.row_of:
            through[self.row_of[x], :] = np.inf  # the row disappears anyway
        return self._invalidate(through)

    def crash_wipe(self, n_cols: int) -> None:
        """Destroy every piece of derived state, as a process crash does:
        ``dv`` all +inf over ``n_cols`` columns, no local APSP, no stored
        external row (their slots freed), no change tracking, no channel
        state (subscriptions included) and no un-synced metering.  The
        caller resets the peers' side of each channel."""
        self.entries.reset(self.n_local, n_cols)
        self._fresh_ext.clear()
        self._changed_rows.clear()
        self.channels = [Channel() for _ in range(self.nprocs)]
        self.take_compute_seconds()

    def clear_external_rows(self) -> None:
        """Drop all stored external boundary rows (stale after deletions)."""
        self.entries.clear_rows()
        self._fresh_ext.clear()

    def queue_all_boundary_rows(self) -> None:
        """Queue every subscribed row for a full (dense) refresh.

        Deletion repairs and recovery paths call this after receivers may
        have dropped or invalidated their stored copies, so the refresh
        must not be delta-encoded against a pre-refresh baseline.
        """
        self._reset_baselines()
        for ch in self.channels:
            ch.pending |= ch.subscribed

    # ------------------------------------------------------------------
    # vertex deletion support
    # ------------------------------------------------------------------
    def remove_column(self, col: int) -> None:
        """Compact away a deleted vertex's DV column."""
        self.entries.drop_column(col)
        # column indices shifted under the baselines: start channels dense
        self._reset_baselines()
        self._charge(self.cost.resize_time(self.n_local + len(self.entries.slot_of), 1))

    def remove_local_vertex(self, v: VertexId) -> None:
        """Remove an owned vertex's row and local structure."""
        r = self.row_of.pop(v)
        self.owned.pop(r)
        for vv in self.owned[r:]:
            self.row_of[vv] -= 1
        self.entries.drop_row(r)
        self.local_graph.remove_vertex(v)
        for x in list(self.cut):
            self.remove_cut_edge(v, x)
        for ch in self.channels:
            ch.forget(v)
        # row indices shifted
        self._changed_rows = set()
        self.request_full_repropagate()
        self._charge(self.cost.vertex_time(1))

    def drop_external_vertex(self, x: VertexId) -> None:
        """Forget external ``x``: its cut edges and its stored row."""
        self.cut.pop(x, None)
        self.entries.drop(x)
        self._fresh_ext.discard(x)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def ext_row(self, x: VertexId) -> Optional[FloatArray]:
        """The stored DV row of external vertex ``x`` (a view into the
        store), or ``None`` when no row of ``x`` is held."""
        return self.entries.row(x)

    def dv_row(self, v: VertexId) -> FloatArray:
        """A copy of the authoritative DV row of owned vertex ``v``."""
        return self.dv[self.row_of[v]].copy()

    def extract_rows(self, vertices: Iterable[VertexId]) -> Dict[VertexId, FloatArray]:
        """Copies of DV rows for migration (Repartition-S)."""
        return {v: self.dv[self.row_of[v]].copy() for v in vertices}

    def __repr__(self) -> str:
        return (
            f"Worker(rank={self.rank}, owned={self.n_local},"
            f" cut={sum(len(d) for d in self.cut.values())})"
        )
