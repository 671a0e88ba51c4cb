"""Greedy k-way boundary refinement (Fiduccia–Mattheyses style).

Given a level of the multilevel hierarchy and a block assignment, repeatedly
move boundary vertices to the neighboring block with the largest positive
cut gain, subject to a balance constraint.  Zero-gain moves are allowed when
they improve balance, which lets the refiner escape plateaus.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .coarsening import Level

__all__ = ["refine_level", "compute_cut", "block_weights"]


def block_weights(level: Level, assign: Dict[int, int], nparts: int) -> List[float]:
    """Total vertex weight per block."""
    weights = [0.0] * nparts
    for v, r in assign.items():
        weights[r] += level.vwgt[v]
    return weights


def compute_cut(level: Level, assign: Dict[int, int]) -> float:
    """Total weight of edges crossing blocks (each edge counted once)."""
    cut = 0.0
    for v, nbrs in level.adj.items():
        rv = assign[v]
        for u, w in nbrs.items():
            if u > v and assign[u] != rv:
                cut += w
    return cut


def _neighbor_block_weights(
    level: Level, assign: Dict[int, int], v: int
) -> Dict[int, float]:
    """Edge weight from ``v`` to each block among its neighbors."""
    conn: Dict[int, float] = {}
    for u, w in level.adj[v].items():
        r = assign[u]
        conn[r] = conn.get(r, 0.0) + w
    return conn


def refine_level(
    level: Level,
    assign: Dict[int, int],
    nparts: int,
    *,
    max_load: "float | Sequence[float]",
    max_passes: int = 8,
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Refine a copy of ``assign`` and return it.

    ``max_load`` may be a scalar (uniform cap) or one cap per block
    (heterogeneous targets).  Invariant guaranteed to callers (and
    asserted by tests): the :func:`compute_cut` of the returned assignment
    never exceeds the starting cut, and no block's weight exceeds its cap
    unless it already did on entry (in which case only weight-decreasing
    moves touch it).

    A vertex's connectivity dict is kept across visits and passes until
    one of its neighbours moves, then rebuilt from scratch — never updated
    by adding or subtracting the moved weight, which would change the
    float sums' bits and with them the first-found tie-breaks.
    """
    assign = dict(assign)
    if isinstance(max_load, (int, float)):
        caps = [float(max_load)] * nparts
    else:
        caps = [float(c) for c in max_load]
        if len(caps) != nparts:
            raise ValueError(f"need {nparts} caps, got {len(caps)}")
    loads = block_weights(level, assign, nparts)
    total_load = sum(loads)
    # with tight caps (a genuine balance constraint) blocks must not be
    # drained far below their share — refinement moves only along edges,
    # so an emptied block can never be refilled; with loose caps the
    # caller explicitly tolerates imbalance and consolidation is allowed
    tight_balance = sum(caps) <= 1.5 * total_load if total_load else False

    def rel(r: int, load: float) -> float:
        """Load relative to the block's capacity (heterogeneous targets)."""
        return load / caps[r] if caps[r] > 0 else float("inf")

    conns: Dict[int, Dict[int, float]] = {}
    for _pass in range(max_passes):
        moved = 0
        order = sorted(level.adj)
        rng.shuffle(order)
        for v in order:
            rv = assign[v]
            conn = conns.get(v)
            if conn is None:
                conn = conns[v] = _neighbor_block_weights(level, assign, v)
            internal = conn.get(rv, 0.0)
            # a move needs gain = ext - internal >= 0, which implies
            # ext >= internal for every float (inf and NaN included):
            # without such a block the candidate loop cannot move v
            for r, ext in conn.items():
                if ext >= internal and r != rv:
                    break
            else:
                continue
            wv = level.vwgt[v]
            best_r, best_gain = rv, 0.0
            for r, ext in conn.items():
                if r == rv:
                    continue
                # a move over the target's cap is only tolerated when it
                # still improves *relative* balance (escape valve for
                # projections that arrive badly imbalanced)
                if loads[r] + wv > caps[r] and rel(r, loads[r] + wv) >= rel(
                    rv, loads[rv]
                ):
                    continue
                if tight_balance and rel(rv, loads[rv] - wv) < 0.45:
                    continue  # see tight_balance note above
                gain = ext - internal
                better_balance = rel(r, loads[r] + wv) < rel(rv, loads[rv])
                if gain > best_gain or (
                    gain == best_gain and best_r == rv and gain == 0.0
                    and better_balance
                ):
                    best_gain, best_r = gain, r
            if best_r != rv:
                assign[v] = best_r
                loads[rv] -= wv
                loads[best_r] += wv
                moved += 1
                # v's own dict does not depend on its block (unless it is
                # its own neighbour: a self-loop drops it here too)
                for u in level.adj[v]:
                    conns.pop(u, None)
        if moved == 0:
            break
    return assign
