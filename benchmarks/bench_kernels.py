"""Micro-benchmarks of the hot worker kernels (real wall time).

These are classic pytest-benchmark timing loops over the three kernels
that dominate the pipeline's Python runtime: the IA-phase local APSP, the
per-edge broadcast relaxation, and the boundary-DV cut relaxation.
"""

import numpy as np
import pytest

import repro.runtime.kernels.oracle as oracle
from repro.graph import (
    barabasi_albert,
    extract_local_subgraph,
    random_weights,
    watts_strogatz,
)
from repro.model import DEFAULT_COST
from repro.partition import MultilevelPartitioner
from repro.runtime import GlobalIndex, Worker

#: IA inputs, one per path of ``oracle.local_apsp_rows``
IA_GRAPHS = {
    # unit weights, few levels: the level sweep
    "scale-free": lambda s: barabasi_albert(s.n_base, s.m, seed=s.seed),
    # mixed weights: Dijkstra
    "weighted": lambda s: random_weights(
        barabasi_albert(s.n_base, s.m, seed=s.seed), 1.0, 5.0, seed=s.seed
    ),
    # unit weights, a rank holds an arc of the ring: the sweep outruns its
    # level budget and bails out to Dijkstra
    "ring-lattice": lambda s: watts_strogatz(s.n_base, 4, 0.0, seed=s.seed),
}


def build(scale, graph=None):
    if graph is None:
        graph = IA_GRAPHS["scale-free"](scale)
    part = MultilevelPartitioner(seed=scale.seed).partition(
        graph, scale.nprocs
    )
    index = GlobalIndex(graph.vertex_list())
    w = Worker(0, scale.nprocs, index, DEFAULT_COST)
    sub = extract_local_subgraph(graph, part.block(0), part.assignment, 0)
    w.load_subgraph(sub)
    return graph, w


def superstep(w):
    """One RC superstep on a lone worker: prepare -> kernel -> apply."""
    task = w.superstep_prepare()
    result = w.tier.run_superstep(task, w.dv, w.local_apsp, w.dv_changed)
    w.superstep_apply(task, result)


@pytest.mark.parametrize(
    "graph, sweeps",
    [("scale-free", [True]), ("weighted", []), ("ring-lattice", [False])],
)
def test_initial_approximation_kernel(benchmark, scale, monkeypatch, graph, sweeps):
    """Rank 0's IA on each path; ``sweeps`` is what the level sweep returns
    (finished / not run / bailed out), checked once before timing."""
    _graph, w = build(scale, IA_GRAPHS[graph](scale))
    seen = []
    level_sweep = oracle._level_sweep
    with monkeypatch.context() as patch:
        patch.setattr(
            oracle, "_level_sweep", lambda *a: seen.append(level_sweep(*a)) or seen[-1]
        )
        w.run_initial_approximation()
    assert seen == sweeps
    benchmark(w.run_initial_approximation)


def settled_worker(scale):
    """A worker mid-RC: every external boundary row known, DV all finite."""
    graph, w = build(scale)
    w.run_initial_approximation()
    superstep(w)
    rng = np.random.default_rng(1)
    w.receive_rows(
        {x: rng.uniform(1.0, 10.0, size=w.n_cols) for x in w.cut_by_ext}
    )
    superstep(w)
    assert np.isfinite(w.dv).all()
    return graph, w


@pytest.mark.parametrize("rectangle", ["dense", "thin"])
def test_edge_row_relaxation_kernel(benchmark, scale, rectangle):
    """Both sides of ``relax_edge_kernel``'s rectangle rule.

    ``dense`` relaxes through two settled vertices (whole block, in
    place, both orientations); ``thin`` through a freshly added isolated
    vertex — one finite row, one finite column, the first edge of every
    vertex addition.  The block is restored before each round, so every
    round times the first, improving relaxation (a second one would find
    column ``a`` finite and go dense).
    """
    graph, w = settled_worker(scale)
    a, b = w.owned[0], w.owned[-1]
    if rectangle == "thin":
        a = max(graph.vertices()) + 1
        w.index.add(a)
        w.grow_columns(len(w.index))
        w.add_local_vertex(a)
    row_a, row_b = w.dv_row(a), w.dv_row(b)
    settled = w.dv.copy()

    def restore():
        w.dv[:, :] = settled

    benchmark.pedantic(
        lambda: w.relax_with_edge_rows(a, row_a, b, row_b, 0.5),
        setup=restore,
        rounds=50,
    )


def test_cut_relaxation_kernel(benchmark, scale):
    _graph, w = build(scale)
    w.run_initial_approximation()
    superstep(w)
    rng = np.random.default_rng(1)
    ext_rows = {
        x: rng.uniform(1.0, 10.0, size=w.n_cols) for x in w.cut_by_ext
    }

    def relax():
        w.receive_rows(ext_rows)
        superstep(w)

    benchmark(relax)


def test_dv_gather_kernel(benchmark, scale):
    """Row extraction for Repartition-S migration."""
    _graph, w = build(scale)
    w.run_initial_approximation()
    benchmark(lambda: w.extract_rows(w.owned))
