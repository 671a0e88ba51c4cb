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

``test_deletion_repair_fold`` is the kernels-level crossover of the
deletion repair: the rectangle fold (what a nothing-known full
re-propagation runs) against pull + push (what a deletion repair runs) on
a converged block in which 2 % / 16 % / 100 % of the entries rose.  The
repair wins by an order of magnitude at the shares deletions produce
(median 1.4 %, max 16 % on ``serve-churn``) and loses 2-3x when everything
rose — which is why nothing-known callers keep the rectangle.

``test_local_edge_fold`` is the crossover of the fold after a local edge
lowered ``local_apsp``: pushing every finite entry (what ``add_local_edge``
declared up to PR 16) against folding the fallen pairs, after a new
vertex's first edge (2n of n**2 pairs), a shortcut between the two local
vertices farthest apart, and every local distance halved (all pairs).
Pairs loses only near 100 % fallen.
"""

import numpy as np
import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.graph import barabasi_albert, extract_local_subgraph
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


@pytest.mark.parametrize("risen", [0.02, 0.16, 1.0])
@pytest.mark.parametrize("variant", ["rectangle", "pull_push"])
def test_deletion_repair_fold(benchmark, scale, variant, risen):
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    config = AnytimeConfig(
        nprocs=scale.nprocs, seed=scale.seed, collect_snapshots=False
    )
    with AnytimeAnywhereCloseness(graph, config) as engine:
        engine.setup()
        engine.run()
        w = max(engine.cluster.workers, key=lambda w: w.n_local)
        converged = w.dv.copy()
        rose = np.random.default_rng(scale.seed).random(w.dv.shape) < risen
        rose[np.arange(w.n_local), w.index.columns(w.owned)] = False
        changed = None if variant == "rectangle" else w.dv_changed

        def setup():
            w.dv[...] = converged
            w.dv[rose] = np.inf

        def fold():
            KERNELS.minplus_fold(w.local_apsp, w.dv, changed, rose)

        benchmark.pedantic(fold, setup=setup, rounds=30)


def _first_edge(apsp, dv):
    """A new vertex (isolated last row, fresh last column) joined to
    vertex 0: one pair falls per row and per column."""
    n = apsp.shape[0]
    grown = np.full((n + 1, n + 1), np.inf)
    grown[:n, :n] = apsp
    grown[n, n] = 0.0
    dv = np.pad(dv, ((0, 1), (0, 1)), constant_values=np.inf)
    dv[n, -1] = 0.0
    return grown, dv, (n, 0)


def _shortcut(apsp, dv):
    far = np.where(np.isfinite(apsp), apsp, -1.0)
    return apsp, dv, np.unravel_index(np.argmax(far), apsp.shape)


@pytest.mark.parametrize("case", ["first_edge", "shortcut", "all_pairs"])
@pytest.mark.parametrize("variant", ["all_entries", "pairs"])
def test_local_edge_fold(benchmark, scale, variant, case):
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    config = AnytimeConfig(
        nprocs=scale.nprocs, seed=scale.seed, collect_snapshots=False
    )
    with AnytimeAnywhereCloseness(graph, config) as engine:
        engine.setup()
        engine.run()
        w = max(engine.cluster.workers, key=lambda w: w.n_local)
        apsp, converged = w.local_apsp.copy(), w.dv.copy()
    if case == "all_pairs":
        lowered = apsp * 0.5
    else:
        apsp, converged, (u, v) = (_first_edge if case == "first_edge" else _shortcut)(
            apsp, converged
        )
        # add_local_edge's incremental repair through the unit edge (u, v)
        lowered = np.minimum(
            apsp,
            np.minimum(
                apsp[:, [u]] + 1.0 + apsp[[v]], apsp[:, [v]] + 1.0 + apsp[[u]]
            ),
        )
    dv = converged.copy()
    if variant == "pairs":
        changed, fell = np.zeros(dv.shape, dtype=bool), lowered < apsp
    else:
        changed, fell = np.isfinite(dv), None

    def setup():
        dv[...] = converged

    def fold():
        KERNELS.minplus_fold(lowered, dv, changed, None, fell)

    benchmark.pedantic(fold, setup=setup, rounds=30)
    benchmark.extra_info["fallen_share"] = float((lowered < apsp).mean())
