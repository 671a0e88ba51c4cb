"""Ablation — restricted vs. full local propagation fold (wall clock).

DESIGN.md calls out the implementation's key optimization: the paper's RC
step performs a full Floyd–Warshall-style local DV update; because the
local APSP matrix is transitively closed, folding only the *changed* rows
over the *dirty* columns is equivalent.  This kernel benchmark measures
the real-time gap between the two on identical state (the modeled clock
charges the paper's dense cost either way — see Worker.superstep_apply).
"""

import numpy as np

from repro.graph import barabasi_albert, extract_local_subgraph
from repro.model import DEFAULT_COST
from repro.partition import MultilevelPartitioner
from repro.runtime import GlobalIndex, Worker

COLUMNS = ["variant", "seconds_per_fold"]


def superstep(w):
    """One RC superstep on a lone worker: prepare -> kernel -> apply."""
    task = w.superstep_prepare()
    result = w.tier.run_superstep(task, w.dv, w.local_apsp)
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
        w._mark_row_changed(r)
        w._dirty_cols[cols] = True


def test_restricted_fold(benchmark, scale):
    w = build_worker(scale)

    def fold():
        perturb(w)
        superstep(w)

    benchmark(fold)


def test_full_fold(benchmark, scale):
    w = build_worker(scale)

    def fold():
        perturb(w)
        w.request_full_repropagate()
        superstep(w)

    benchmark(fold)
