"""Ablation — dense vs. rectangle vs. entry-level propagation fold (wall clock).

DESIGN.md calls out the implementation's key optimization: the paper's RC
step performs a full Floyd–Warshall-style local DV update; because the
local APSP matrix is transitively closed, folding only what changed is
equivalent.  Three extents on identical state: *dense* (every row x every
column, what a full re-propagation runs), *rectangle* (changed rows x
dirty columns, the fold up to PR 14 and today's test reference) and
*entry* (only the entries marked in ``dv_changed``, what an RC superstep
runs).  The modeled clock charges the paper's dense cost either way — see
Worker.superstep_apply.

``test_deletion_repair_fold`` times the full fold a deletion repair runs
(``changed=None``: the block re-derived from every finite entry) on a
converged block in which 2 % / 16 % / 100 % of the entries rose to +inf:
*sweep* with the local CSR (integer weights: one seeded level sweep) and
*rectangle* without it (what a float-weight block runs).

``test_local_edge_fold`` is the fold after a local edge lowered
``local_apsp``, after a new vertex's first edge, a shortcut between the
two local vertices farthest apart, and every local distance halved:
*full* re-derives the block with the lowered CSR (what ``add_local_edge``
requests) and *all_entries* pushes every finite entry as ``dv_changed``
through the same CSR.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.graph import CSR, barabasi_albert, extract_local_subgraph
from repro.model import DEFAULT_COST
from repro.partition import MultilevelPartitioner
from repro.runtime import GlobalIndex, Worker
from repro.runtime.kernels import KERNELS, minplus_fold, minplus_fold_changed

COLUMNS = ["variant", "seconds_per_fold"]


def superstep(w):
    """One RC superstep on a lone worker: prepare -> kernel -> apply."""
    task = w.superstep_prepare()
    result = KERNELS.run_superstep(task, *w.entries.kernel_arrays())
    w.superstep_apply(task, result)


def build_worker(scale):
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    part = MultilevelPartitioner(seed=scale.seed).partition(
        graph, scale.nprocs
    )
    index = GlobalIndex(graph.vertex_list())
    w = Worker(0, scale.nprocs, index, DEFAULT_COST)
    sub = extract_local_subgraph(graph, part.block(0), part.assignment, 0)
    w.load_subgraph(sub)
    w.run_initial_approximation()
    superstep(w)
    return w


def perturb(w, k=4):
    """Improve a few boundary rows as an RC step's cut relaxation would."""
    rng = np.random.default_rng(0)
    for v in list(w.cut_adj)[:k]:
        r = w.row_of[v]
        cols = rng.integers(0, w.n_cols, size=8)
        w.dv[r, cols] = np.maximum(w.dv[r, cols] * 0.5, 0.0)
        w.dv_changed[r, cols] = True
        w._mark_rows_changed([r])
        w.entries.dirty_cols[cols] = True


def run(benchmark, scale, fold):
    """Time ``fold(w)`` on freshly perturbed state, kernel call only."""
    w = build_worker(scale)

    def setup():
        w._changed_rows.clear()
        w.entries.dirty_cols[:] = False
        w.dv_changed[...] = False
        perturb(w)

    benchmark.pedantic(fold, args=(w,), setup=setup, rounds=300)


def test_entry_fold(benchmark, scale):
    run(
        benchmark,
        scale,
        lambda w: minplus_fold_changed(w.local_apsp, w.dv, w.dv_changed),
    )


def test_rectangle_fold(benchmark, scale):
    run(
        benchmark,
        scale,
        lambda w: minplus_fold(
            w.local_apsp,
            w.dv,
            sorted(w._changed_rows),
            np.flatnonzero(w.entries.dirty_cols),
        ),
    )


def test_dense_fold(benchmark, scale):
    run(
        benchmark,
        scale,
        lambda w: minplus_fold(
            w.local_apsp, w.dv, np.arange(w.n_local), np.arange(w.n_cols)
        ),
    )


def converged_rank(scale):
    """Copies of the largest rank of a converged static run: ``(apsp, dv,
    csr, self_cols)``, ``csr`` the local graph ``apsp`` is the closure of."""
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    config = AnytimeConfig(
        nprocs=scale.nprocs, seed=scale.seed, collect_snapshots=False
    )
    with AnytimeAnywhereCloseness(graph, config) as engine:
        engine.setup()
        engine.run()
        w = max(engine.cluster.workers, key=lambda w: w.n_local)
        return (
            w.local_apsp.copy(),
            w.dv.copy(),
            w.local_graph.to_csr(w.owned).matrix.copy(),
            w.index.columns(w.owned),
        )


@pytest.mark.parametrize("risen", [0.02, 0.16, 1.0])
@pytest.mark.parametrize("variant", ["rectangle", "sweep"])
def test_deletion_repair_fold(benchmark, scale, variant, risen):
    apsp, converged, csr, self_cols = converged_rank(scale)
    dv = converged.copy()
    rose = np.random.default_rng(scale.seed).random(dv.shape) < risen
    rose[np.arange(dv.shape[0]), self_cols] = False
    graph = CSR(csr.indptr, csr.indices, csr.data) if variant == "sweep" else None

    def setup():
        dv[...] = converged
        dv[rose] = np.inf

    def fold():
        KERNELS.minplus_fold(apsp, dv, None, graph)

    benchmark.pedantic(fold, setup=setup, rounds=30)


def _first_edge(apsp, dv, csr):
    """A new vertex (isolated last row, fresh last column) joined to
    vertex 0: one pair falls per row and per column."""
    n = apsp.shape[0]
    grown = np.full((n + 1, n + 1), np.inf)
    grown[:n, :n] = apsp
    grown[n, n] = 0.0
    dv = np.pad(dv, ((0, 1), (0, 1)), constant_values=np.inf)
    dv[n, -1] = 0.0
    csr = sp.csr_matrix(sp.block_diag([csr, sp.csr_matrix((1, 1))]))
    return grown, dv, csr, (n, 0)


def _shortcut(apsp, dv, csr):
    far = np.where(np.isfinite(apsp), apsp, -1.0)
    u, v = np.unravel_index(np.argmax(far), apsp.shape)
    return apsp, dv, csr, (int(u), int(v))


@pytest.mark.parametrize("case", ["first_edge", "shortcut", "all_pairs"])
@pytest.mark.parametrize("variant", ["all_entries", "full"])
def test_local_edge_fold(benchmark, scale, variant, case):
    apsp, converged, csr, _self_cols = converged_rank(scale)
    if case == "all_pairs":
        lowered, graph = apsp * 0.5, csr * 0.5
    else:
        apsp, converged, csr, (u, v) = (
            _first_edge if case == "first_edge" else _shortcut
        )(apsp, converged, csr)
        assert csr[u, v] == 0  # a new edge, not a lighter parallel one
        graph = sp.csr_matrix(csr + sp.csr_matrix(
            ([1.0, 1.0], ([u, v], [v, u])), shape=csr.shape
        ))
        # add_local_edge's incremental repair through the unit edge (u, v)
        lowered = np.minimum(
            apsp,
            np.minimum(
                apsp[:, [u]] + 1.0 + apsp[[v]], apsp[:, [v]] + 1.0 + apsp[[u]]
            ),
        )
    # the fold's contract: ``lowered`` is the closure of ``graph``
    assert np.array_equal(lowered, csgraph.dijkstra(graph))
    graph = CSR(graph.indptr, graph.indices, graph.data)
    dv = converged.copy()

    def setup():
        dv[...] = converged

    def fold():
        changed = None if variant == "full" else np.isfinite(dv)
        KERNELS.minplus_fold(lowered, dv, changed, graph)

    benchmark.pedantic(fold, setup=setup, rounds=30)
    benchmark.extra_info["fallen_share"] = float((lowered < apsp).mean())
