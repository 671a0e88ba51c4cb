"""Cluster invariant checker (test/debug support).

After any sequence of dynamic operations the cluster must satisfy the
structural invariants the algorithm relies on; :func:`check_cluster_invariants`
asserts them all and is called by integration tests after complex
mutation sequences (additions + deletions + migrations + faults).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from .kernels import minplus_fold_changed
from .kernels.oracle import closure_exact

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["check_cluster_invariants"]


def check_cluster_invariants(cluster: "Cluster") -> List[str]:
    """Assert all structural invariants; returns the list of checks run.

    Raises ``AssertionError`` with a descriptive message on violation.
    """
    checks: List[str] = []
    part = cluster.partition
    assert part is not None, "cluster not decomposed"

    # 1. partition covers the graph exactly
    part.validate_against(cluster.graph)
    checks.append("partition-covers-graph")

    # 2. each worker owns exactly its block, rows aligned
    for w in cluster.workers:
        assert w.owned == part.block(w.rank), f"rank {w.rank} owned mismatch"
        assert w.dv.shape == (len(w.owned), cluster.n_columns)
        assert w.dv_changed.shape == w.dv.shape, (
            f"rank {w.rank} changed-entry mask out of step with dv"
        )
        for v, r in w.row_of.items():
            assert w.owned[r] == v
    checks.append("ownership-and-shapes")

    # 3. DV diagonal zeros, everything non-negative
    for w in cluster.workers:
        for v in w.owned:
            row = w.dv[w.row_of[v]]
            assert row[cluster.index.column(v)] == 0.0, f"diag({v}) != 0"
            assert (row >= 0).all(), f"negative distance in row of {v}"
    checks.append("dv-diagonal-and-sign")

    # 4. local graphs are the induced sub-graphs of the global graph
    for w in cluster.workers:
        owned = set(w.owned)
        for u, v, weight in w.local_graph.edges():
            assert cluster.graph.has_edge(u, v), f"ghost local edge ({u},{v})"
            assert cluster.graph.weight(u, v) == weight
        for u, v, weight in cluster.graph.edges():
            if u in owned and v in owned:
                assert w.local_graph.has_edge(u, v), f"missing local ({u},{v})"
    checks.append("local-graphs-induced")

    # 5. cut edges match the global graph and ownership
    for w in cluster.workers:
        for u, nbrs in w.cut_adj.items():
            assert u in w.row_of
            for x, weight in nbrs.items():
                assert cluster.owner_of(x) != w.rank, f"cut edge to own {x}"
                assert cluster.graph.has_edge(u, x), f"ghost cut ({u},{x})"
                assert cluster.graph.weight(u, x) == weight
    checks.append("cut-edges-consistent")

    # 6. every cut edge in the global graph is registered on both sides
    for u, v, weight in cluster.graph.edges():
        ru, rv = cluster.owner_of(u), cluster.owner_of(v)
        if ru == rv:
            continue
        assert cluster.workers[ru].cut_adj.get(u, {}).get(v) == weight
        assert cluster.workers[rv].cut_adj.get(v, {}).get(u) == weight
    checks.append("cut-edges-bidirectional")

    # 7. subscriptions: whoever lists x as external boundary is subscribed
    #    at x's owner
    for w in cluster.workers:
        for x in w.cut_by_ext:
            owner = cluster.workers[cluster.owner_of(x)]
            assert x in owner.channels[w.rank].subscribed, (
                f"rank {w.rank} not subscribed to {x}"
            )
    checks.append("subscriptions-wired")

    # 8. local APSP matrices square and zero-diagonal
    for w in cluster.workers:
        n = w.n_local
        if w.local_apsp.size:
            assert w.local_apsp.shape == (n, n)
            assert (np.diag(w.local_apsp) == 0).all()
    checks.append("local-apsp-shape")

    # 9. local closure — the premise of the incremental push: an entry
    #    d(k,t) outside ``dv_changed`` has been a fold source at its current
    #    value, so no row x can improve through it.  Ranks with a full fold
    #    pending (which re-derives the block and ignores the mask) or with
    #    no local APSP yet (before IA, between crash and recovery) are
    #    exempt.  rtol covers float path sums rounded in different orders;
    #    it is exact on integer weights, where two distinct path sums
    #    differ by at least 1.
    for w in cluster.workers:
        n = w.n_local
        if w._full_repropagate or n == 0 or w.local_apsp.shape != (n, n):
            continue
        folded = w.dv.copy()
        minplus_fold_changed(w.local_apsp, folded, ~w.dv_changed)
        open_ = w.dv > folded * (1.0 + 1e-12)
        assert not open_.any(), (
            f"rank {w.rank}: {int(open_.sum())} DV entries improvable through"
            " an entry not marked in dv_changed"
        )
    checks.append("local-closure")

    # 10. the local CSR is what the local APSP is the closure of — the
    #     premise of the closure fold, which searches the CSR in place of
    #     reading local_apsp.  Bit for bit where the weights are exact for
    #     the sweep; within check 9's rtol on float weights, where
    #     add_local_edge's in-place repair may round unlike Dijkstra.
    #     Checked against scipy's Dijkstra, not the IA kernel under test
    from scipy.sparse import csgraph

    for w in cluster.workers:
        n = w.n_local
        if n == 0 or w.local_apsp.shape != (n, n):
            continue
        csr = w.entries.local_csr  # or, dropped, what the next superstep exports
        csr = w.local_graph.to_csr(w.owned).csr if csr is None else csr
        rtol = 0.0 if closure_exact(csr, np.zeros(0)) else 1e-12
        assert np.allclose(
            csgraph.dijkstra(csr.to_scipy(), directed=False), w.local_apsp,
            rtol=rtol, atol=0.0,
        ), f"rank {w.rank}: local_apsp is not the closure of local_csr"
    checks.append("local-csr-closure")

    return checks
