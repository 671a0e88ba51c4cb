"""Multilevel k-way graph partitioner (the library's METIS stand-in).

Three phases, exactly the structure of Karypis & Kumar's multilevel scheme:

1. **Coarsening** — heavy-edge matching contracts the graph level by level
   until it has at most ``coarsen_to`` vertices (or stops shrinking).
2. **Initial partitioning** — weighted greedy region growing on the
   coarsest graph, then boundary refinement.
3. **Uncoarsening** — project the assignment back level by level, running
   boundary refinement at every level.

The partitioner enforces a balance constraint
``max_block_weight <= (1 + epsilon) * total / nparts`` (vertex weights are
the number of original vertices a coarse vertex represents).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import BalanceConstraintError
from ..graph.graph import Graph
from ..types import Rank, VertexId
from .base import Partition, Partitioner
from .coarsening import Level, contract, heavy_edge_matching, level_from_graph
from .refinement import refine_level

__all__ = ["MultilevelPartitioner"]


def _grow_initial(
    level: Level, nparts: int, caps: List[float], rng: np.random.Generator
) -> Dict[int, int]:
    """Weighted greedy region growing on the coarsest level.

    ``caps[r]`` bounds block ``r``'s vertex weight (uniform for homogeneous
    clusters, proportional to processor speed for heterogeneous ones).
    """
    assign: Dict[int, int] = {}
    loads = [0.0] * nparts
    vertices = sorted(level.adj)
    if not vertices:
        return assign
    # Seed each region with mutually *distant* vertices: after the first
    # (highest-degree) seed, every further seed minimizes its edge weight
    # to the seeds already chosen (ties broken toward high degree).
    # Degree-only seeding can drop several seeds into one dense community,
    # which the balance caps then freeze into a poor cut.
    by_degree = sorted(vertices, key=lambda v: (-len(level.adj[v]), v))
    seeds: List[int] = [by_degree[0]]
    seed_set = {by_degree[0]}
    while len(seeds) < min(nparts, len(vertices)):
        best_v, best_key = None, None
        for v in by_degree:
            if v in seed_set:
                continue
            to_seeds = sum(
                w for u, w in level.adj[v].items() if u in seed_set
            )
            key = (to_seeds, -len(level.adj[v]), v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        assert best_v is not None
        seeds.append(best_v)
        seed_set.add(best_v)
    frontiers: List[deque] = [deque() for _ in range(nparts)]
    for r, v in enumerate(seeds):
        assign[v] = r
        loads[r] += level.vwgt[v]
        frontiers[r].append(v)
    active = True
    while active:
        active = False
        # always grow the lightest region that still has a frontier
        order = sorted(range(nparts), key=lambda r: loads[r])
        for r in order:
            if not frontiers[r]:
                continue
            v = frontiers[r].popleft()
            for u in sorted(level.adj[v], key=lambda u: -level.adj[v][u]):
                if u in assign:
                    continue
                if loads[r] + level.vwgt[u] > caps[r]:
                    continue
                assign[u] = r
                loads[r] += level.vwgt[u]
                frontiers[r].append(u)
            if frontiers[r]:
                active = True
    # leftovers (caps or disconnection): lightest block that fits, else lightest
    for v in vertices:
        if v in assign:
            continue
        order = sorted(range(nparts), key=lambda r: loads[r])
        placed = False
        for r in order:
            if loads[r] + level.vwgt[v] <= caps[r]:
                assign[v] = r
                loads[r] += level.vwgt[v]
                placed = True
                break
        if not placed:
            r = order[0]
            assign[v] = r
            loads[r] += level.vwgt[v]
    return assign


class MultilevelPartitioner(Partitioner):
    """METIS-style multilevel k-way partitioner.

    Parameters
    ----------
    epsilon:
        Balance tolerance; block vertex-weight may exceed the average by at
        most this fraction.
    coarsen_to:
        Stop coarsening when at most this many vertices remain (scaled up
        to ``8 * nparts`` when nparts is large).
    max_passes:
        Refinement passes per level.
    seed:
        RNG seed (matching order, tie-breaks, refinement order).
    strict_balance:
        If True, raise :class:`BalanceConstraintError` when the final
        partition violates the tolerance; otherwise return best effort.
    """

    def __init__(
        self,
        *,
        epsilon: float = 0.05,
        coarsen_to: int = 64,
        max_passes: int = 8,
        seed: Optional[int] = None,
        strict_balance: bool = False,
        target_weights: Optional[Sequence[float]] = None,
    ) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if target_weights is not None and any(t <= 0 for t in target_weights):
            raise ValueError("target_weights must be positive")
        self.epsilon = epsilon
        self.coarsen_to = coarsen_to
        self.max_passes = max_passes
        self.seed = seed
        self.strict_balance = strict_balance
        #: per-block share of the vertex weight (heterogeneous clusters:
        #: proportional to processor speed); None = uniform
        self.target_weights = (
            list(target_weights) if target_weights is not None else None
        )

    def partition(self, graph: Graph, nparts: int) -> Partition:
        if nparts < 1:
            raise ValueError(f"nparts must be >= 1, got {nparts}")
        if self.target_weights is not None and len(self.target_weights) != nparts:
            raise ValueError(
                f"target_weights has {len(self.target_weights)} entries"
                f" for nparts={nparts}"
            )
        n = graph.num_vertices
        if n == 0:
            return Partition(nparts, {})
        if nparts == 1:
            return Partition(1, {v: 0 for v in graph.vertices()})
        if nparts >= n:
            # degenerate: one vertex per block (some blocks empty)
            return Partition(
                nparts, {v: i for i, v in enumerate(graph.vertex_list())}
            )
        rng = np.random.default_rng(self.seed)
        total = float(n)
        if self.target_weights is not None:
            share = np.asarray(self.target_weights, dtype=np.float64)
            share = share / share.sum()
        else:
            share = np.full(nparts, 1.0 / nparts)
        caps = [(1.0 + self.epsilon) * total * s_ for s_ in share]
        avg = total / nparts
        # a coarse vertex may not itself outweigh the smallest block
        max_cluster = max(total * float(share.min()) / 4.0, 1.0)

        # ---- phase 1: coarsen -------------------------------------------
        levels: List[Level] = [level_from_graph(graph)]
        target = max(self.coarsen_to, 8 * nparts)
        while levels[-1].num_vertices > target:
            cur = levels[-1]
            mate = heavy_edge_matching(cur, rng, max_cluster)
            nxt = contract(cur, mate)
            if nxt.num_vertices >= int(0.95 * cur.num_vertices):
                break  # matching stalled (e.g. star graphs); stop coarsening
            levels.append(nxt)

        # ---- phase 2: initial partition on the coarsest level -----------
        coarsest = levels[-1]
        assign = _grow_initial(coarsest, nparts, caps, rng)
        assign = refine_level(
            coarsest, assign, nparts, max_load=caps,
            max_passes=self.max_passes, rng=rng,
        )

        # ---- phase 3: uncoarsen + refine ---------------------------------
        for fine, coarse in zip(reversed(levels[:-1]), reversed(levels[1:])):
            projected = {
                v: assign[coarse.fine_to_coarse[v]] for v in fine.adj
            }
            assign = refine_level(
                fine, projected, nparts, max_load=caps,
                max_passes=self.max_passes, rng=rng,
            )

        assignment: Dict[VertexId, Rank] = {v: assign[v] for v in graph.vertices()}
        part = Partition(nparts, assignment)
        if self.strict_balance:
            sizes = part.block_sizes()
            if any(sz > cap + 1e-9 for sz, cap in zip(sizes, caps)):
                raise BalanceConstraintError(
                    f"balance {max(sizes) / avg:.3f} exceeds tolerance"
                    f" {1 + self.epsilon:.3f}"
                )
        return part
