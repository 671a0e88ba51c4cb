"""Checkpoint / restore for long-running analyses.

An anytime computation is exactly the kind of thing one wants to persist:
all accumulated refinement lives in the workers' DV matrices, and those
are plain arrays.  A checkpoint captures

* the global graph, the partition, and the column index,
* every worker's DV matrix and local APSP,
* the modeled/wall clocks and the next RC step,

in a single compressed ``.npz``.  Restore rebuilds the cluster around the
saved partition, re-wires subscriptions, and conservatively queues a full
boundary refresh (any in-flight rows at save time are thereby recovered;
re-sending converged rows is harmless, only mildly over-charging the
modeled clock).  Resuming a converged checkpoint therefore converges
immediately; resuming a mid-computation checkpoint continues refining.

The engine's *configuration* (cost model, partitioner, schedule) is code,
not data — pass the same :class:`AnytimeConfig` to :func:`load_checkpoint`
that produced the checkpoint, or accept the defaults.

The same machinery backs the fault-tolerance supervisor's **in-memory**
periodic checkpoints (:class:`ClusterStateSnapshot` /
:func:`snapshot_cluster_state`): instead of serializing to disk, each
worker's derived state is copied — modeled as a ship to a buddy rank —
so a crashed rank can restore its DV rows without rerunning the IA-phase
Dijkstra (see :mod:`repro.runtime.supervisor`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..graph.graph import Graph
from ..graph.views import extract_local_subgraph
from ..partition.base import Partition
from ..runtime.cluster import Cluster
from ..runtime.message import dense_row_words
from ..types import FloatArray, Rank, VertexId

if TYPE_CHECKING:  # pragma: no cover
    from .config import AnytimeConfig
    from .engine import AnytimeAnywhereCloseness

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
    "ClusterStateSnapshot",
    "snapshot_cluster_state",
]

CHECKPOINT_VERSION = 1

_PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# in-memory snapshots (fault-tolerance supervisor)
# ----------------------------------------------------------------------
@dataclass
class ClusterStateSnapshot:
    """An in-memory copy of every worker's derived state at one RC step.

    Unlike the on-disk checkpoint this does not persist the graph — the
    graph is durable input; only the *derived* arrays a crash destroys are
    captured.  ``owned`` / ``local_edges`` record the structural context
    so a restore can detect whether the saved local APSP is still exact.
    """

    step: int
    n_cols: int
    index_ids: Tuple[VertexId, ...]
    owned: Dict[Rank, Tuple[VertexId, ...]]
    dv: Dict[Rank, FloatArray]
    apsp: Dict[Rank, FloatArray]
    local_edges: Dict[Rank, int]

    def words(self, rank: Rank) -> int:
        """Wire words to ship one rank's saved state (DV rows + APSP).

        DV rows are always shipped dense (same pricing as a dense
        boundary row): snapshots are full-state transfers, never deltas.
        """
        dv = self.dv.get(rank)
        apsp = self.apsp.get(rank)
        n_rows = 0 if dv is None else dv.shape[0]
        n_cols = 0 if dv is None else dv.shape[1]
        return n_rows * dense_row_words(n_cols) + (
            0 if apsp is None else apsp.size
        )

    def compatible_with(self, cluster: Cluster) -> bool:
        """Whether restored rows would align with the cluster's columns.

        Columns only ever *append* under additions; deletions (which
        compact columns and invalidate upper bounds) must drop the
        snapshot instead — the supervisor handles that.
        """
        if self.n_cols > cluster.n_columns:
            return False
        return tuple(cluster.index.ids[: self.n_cols]) == self.index_ids


def snapshot_cluster_state(cluster: Cluster, step: int) -> ClusterStateSnapshot:
    """Copy every worker's derived state (DV, local APSP) at ``step``.

    Pure observation — the *communication* cost of shipping the copies to
    buddy ranks is charged by the caller (the supervisor), keeping the
    policy's LogP accounting in one place.
    """
    return ClusterStateSnapshot(
        step=step,
        n_cols=cluster.n_columns,
        index_ids=tuple(cluster.index.ids),
        owned={w.rank: tuple(w.owned) for w in cluster.workers},
        dv={w.rank: w.dv.copy() for w in cluster.workers},
        apsp={w.rank: w.local_apsp.copy() for w in cluster.workers},
        local_edges={
            w.rank: w.local_graph.num_edges for w in cluster.workers
        },
    )


# ----------------------------------------------------------------------
# on-disk checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(
    engine: "AnytimeAnywhereCloseness", path: _PathLike
) -> None:
    """Persist a set-up engine's full computation state to ``path``."""
    cluster = engine.cluster
    if cluster is None or cluster.partition is None:
        raise ConfigurationError("engine must be set up before checkpointing")
    graph = cluster.graph
    edges = graph.edge_list()
    arrays = {
        "edges_u": np.array([u for u, _v, _w in edges], dtype=np.int64),
        "edges_v": np.array([v for _u, v, _w in edges], dtype=np.int64),
        "edges_w": np.array([w for _u, _v, w in edges], dtype=np.float64),
        "vertices": np.array(graph.vertex_list(), dtype=np.int64),
        "index_ids": np.array(cluster.index.ids, dtype=np.int64),
        "part_vertices": np.array(
            sorted(cluster.partition.assignment), dtype=np.int64
        ),
        "part_ranks": np.array(
            [
                cluster.partition.assignment[v]
                for v in sorted(cluster.partition.assignment)
            ],
            dtype=np.int64,
        ),
    }
    for w in cluster.workers:
        arrays[f"dv_{w.rank}"] = w.dv
        arrays[f"apsp_{w.rank}"] = w.local_apsp
    meta = {
        "version": CHECKPOINT_VERSION,
        "nprocs": cluster.nprocs,
        "next_step": engine._next_step,
        "modeled_seconds": cluster.tracer.modeled_seconds,
        "wall_seconds": cluster.tracer.wall_seconds,
        "wf_improved": engine.config.wf_improved,
        "worker_speeds": [w.speed for w in cluster.workers],
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    # crash-safe write: stage into a sibling temp file, force it to disk,
    # then atomically rename over the destination.  A crash mid-write
    # leaves either the previous complete checkpoint or a stray .tmp —
    # never a truncated file at the final path.
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_REQUIRED_ARRAYS = (
    "edges_u",
    "edges_v",
    "edges_w",
    "vertices",
    "index_ids",
    "part_vertices",
    "part_ranks",
)


def _read_checkpoint(
    path: _PathLike,
) -> Tuple[Dict[str, Any], Dict[str, FloatArray]]:
    """Load and structurally validate a checkpoint file.

    Raises :class:`ConfigurationError` with a clear message for anything
    short of a well-formed, current-version checkpoint — a corrupted or
    truncated file, a foreign ``.npz``, or a version mismatch — instead of
    failing deep inside array reshaping.
    """
    try:
        with np.load(path) as data:
            keys = set(data.files)
            if "meta_json" not in keys:
                raise ConfigurationError(
                    f"{path}: not a repro checkpoint (no meta_json entry)"
                )
            try:
                meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise ConfigurationError(
                    f"{path}: corrupted checkpoint metadata ({exc})"
                ) from exc
            version = meta.get("version") if isinstance(meta, dict) else None
            if version != CHECKPOINT_VERSION:
                raise ConfigurationError(
                    f"{path}: unsupported checkpoint version {version!r}"
                    f" (this build reads version {CHECKPOINT_VERSION})"
                )
            missing = [k for k in _REQUIRED_ARRAYS if k not in keys]
            try:
                nprocs = int(meta["nprocs"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"{path}: checkpoint metadata lacks a valid nprocs"
                ) from exc
            if nprocs < 1:
                raise ConfigurationError(
                    f"{path}: checkpoint nprocs must be >= 1, got {nprocs}"
                )
            missing += [
                k
                for r in range(nprocs)
                for k in (f"dv_{r}", f"apsp_{r}")
                if k not in keys
            ]
            if missing:
                raise ConfigurationError(
                    f"{path}: checkpoint is missing arrays {missing[:6]}"
                )
            arrays = {
                k: data[k] for k in sorted(keys) if k != "meta_json"
            }
    except ConfigurationError:
        raise
    except Exception as exc:  # zipfile/pickle/OS-level corruption
        raise ConfigurationError(
            f"{path}: cannot read checkpoint ({exc})"
        ) from exc
    return meta, arrays


def load_checkpoint(
    path: _PathLike, config: Optional["AnytimeConfig"] = None
) -> "AnytimeAnywhereCloseness":
    """Rebuild an engine from a checkpoint; ready for :meth:`run`.

    ``config`` supplies the non-data configuration (cost model,
    partitioners, schedule); its ``nprocs`` must match the checkpoint.
    Raises :class:`ConfigurationError` for corrupted files, version
    mismatches, and checkpoints inconsistent with themselves or with the
    supplied configuration.
    """
    # imported here: checkpoint <-> engine would otherwise be a cycle
    from .config import AnytimeConfig
    from .engine import AnytimeAnywhereCloseness

    meta, data = _read_checkpoint(path)
    nprocs = int(meta["nprocs"])
    speeds = meta.get("worker_speeds")
    if speeds is not None and all(sp == 1.0 for sp in speeds):
        speeds = None  # homogeneous: no need to carry the list
    if config is None:
        config = AnytimeConfig(
            nprocs=nprocs,
            wf_improved=bool(meta.get("wf_improved", False)),
            worker_speeds=speeds,
        )
    if config.nprocs != nprocs:
        raise ConfigurationError(
            f"config.nprocs={config.nprocs} does not match the"
            f" checkpoint's {nprocs}"
        )
    graph = Graph()
    for v in data["vertices"]:
        graph.add_vertex(int(v))
    for u, v, w in zip(data["edges_u"], data["edges_v"], data["edges_w"]):
        graph.add_edge(int(u), int(v), float(w))
    assignment = {
        int(v): int(r)
        for v, r in zip(data["part_vertices"], data["part_ranks"])
    }
    index_ids = [int(v) for v in data["index_ids"]]
    if set(index_ids) != set(graph.vertices()) or len(index_ids) != len(
        set(index_ids)
    ):
        raise ConfigurationError(
            f"{path}: checkpoint column index does not match its own"
            " vertex set (corrupted or hand-edited checkpoint)"
        )
    dvs = {r: data[f"dv_{r}"] for r in range(nprocs)}
    apsps = {r: data[f"apsp_{r}"] for r in range(nprocs)}

    engine = AnytimeAnywhereCloseness(graph, config)
    cluster = engine.cluster = engine._new_cluster()
    # rebuild the column index in the saved order
    cluster.index.ids = []
    cluster.index.col = {}
    cluster.index.add_many(index_ids)
    part = Partition(nprocs, assignment)
    part.validate_against(engine.graph)
    cluster.partition = part
    blocks = part.blocks()
    for r in range(nprocs):
        sub = extract_local_subgraph(engine.graph, blocks[r], assignment, r)
        w = cluster.workers[r]
        w.load_subgraph(sub)
        dv = dvs[r]
        if dv.shape != w.dv.shape:
            raise ConfigurationError(
                f"checkpoint DV shape {dv.shape} does not match rebuilt"
                f" worker {r} shape {w.dv.shape}"
            )
        apsp = apsps[r]
        n = len(blocks[r])
        if apsp.size and apsp.shape != (n, n):
            raise ConfigurationError(
                f"checkpoint local APSP shape {apsp.shape} does not match"
                f" worker {r}'s {n} owned vertices"
            )
        w.dv = dv.copy()
        w.local_apsp = apsp.copy()
        w.take_compute_seconds()
    cluster._wire_subscriptions()
    # conservative refresh: recover any in-flight state at save time.
    # Delta baselines are deliberately NOT checkpointed: fresh workers
    # start with empty per-channel state and queue_all_boundary_rows()
    # resets it besides, so the first post-restore exchange degrades to
    # dense sends and re-establishes the baselines.
    for w in cluster.workers:
        w.queue_all_boundary_rows()
        w.request_full_repropagate()
    try:
        cluster.tracer.modeled_seconds = float(meta["modeled_seconds"])
        cluster.tracer.wall_seconds = float(meta["wall_seconds"])
        engine._next_step = int(meta["next_step"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{path}: checkpoint metadata lacks valid clocks/step"
        ) from exc
    return engine
