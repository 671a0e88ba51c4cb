"""Micro-benchmarks of the hot worker kernels (real wall time).

These are classic pytest-benchmark timing loops over the kernels that
dominate the pipeline's Python runtime: the IA-phase local APSP, the
per-edge broadcast relaxation, the boundary-DV cut relaxation and the
RC step's propagation fold.
"""

import numpy as np
import pytest

import repro.runtime.kernels.oracle as oracle
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.bench.workloads import community_workload
from repro.graph import (
    barabasi_albert,
    extract_local_subgraph,
    random_weights,
    watts_strogatz,
)
from repro.model import DEFAULT_COST
from repro.partition import MultilevelPartitioner
from repro.runtime import GlobalIndex, Worker
from repro.runtime.kernels import KERNELS, KernelTier
from repro.serve import HybridAdmission, UpdateService, synthesize_churn

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
    result = KERNELS.run_superstep(
        task, w.dv, w.local_apsp, w.dv_changed, w.ext_store.rows
    )
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


def first_fold_state(scale, weights=None):
    """The first RC fold of ``static-solve`` (BA 1000, m = 3, 2 ranks; 600
    vertices at small scale), its edges reweighted by ``weights(u, v)`` if
    given: every boundary row has just relaxed against every external row.
    Returns the fuller rank and its fold inputs."""
    n_graph = 600 if scale.n_base < 400 else 1000
    graph = barabasi_albert(n_graph, 3, seed=1)
    if weights is not None:
        for u, v, _w in list(graph.edges()):
            graph.add_edge(u, v, weights(u, v))
    engine = AnytimeAnywhereCloseness(
        graph, AnytimeConfig(nprocs=2, backend="serial", collect_snapshots=False)
    )
    with engine:
        engine.setup()
        engine.cluster.exchange_boundary()
        tasks = [(w, w.superstep_prepare()) for w in engine.cluster.workers]
        for w, task in tasks:
            KERNELS.relax_cut(
                w.dv, w.dv_changed, task.dirty_cols, w.ext_store.rows, task.relax_items
            )
        w = max(engine.cluster.workers, key=lambda w: int(w.dv_changed.sum()))
        return w, w.local_apsp.copy(), w.dv.copy(), w.dv_changed.copy(), w.local_csr


def captured_fold(monkeypatch, engine, drive, want):
    """The inputs of the first fold of ``drive(engine)`` whose masks
    pass ``want(rose, fell)``, copied before it ran: ``(apsp, dv, changed,
    rose, fell, graph)``."""
    seen = []
    real = KernelTier.minplus_fold

    def spy(kernels, apsp, dv, changed, rose=None, fell=None, graph=None):
        if not seen and want(rose, fell):
            seen.append(tuple(
                None if a is None else a.copy()
                for a in (apsp, dv, changed, rose, fell)
            ) + (graph,))
        return real(kernels, apsp, dv, changed, rose, fell, graph)

    with engine, monkeypatch.context() as patch:
        patch.setattr(KernelTier, "minplus_fold", spy)
        engine.setup()
        drive(engine)
    return seen[0]


def after_injection_state(scale, monkeypatch):
    """The first fold after ``batch-add``'s injection (BA community batch,
    700 + 70 vertices on 4 ranks under CutEdge-PS; 150 + 15 at small
    scale): its new rows and local edges set ``fell``."""
    n_base, n_new = (150, 15) if scale.n_base < 400 else (700, 70)
    wl = community_workload(n_base, n_new, seed=1, inject_step=2)
    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, backend="serial", collect_snapshots=False)
    )
    return captured_fold(
        monkeypatch,
        engine,
        lambda e: e.run(changes=wl.stream, strategy="cutedge"),
        lambda rose, fell: fell is not None,
    )


def repair_state(scale, monkeypatch):
    """The first deletion repair of ``serve-churn`` (``steady-small`` on BA
    300, 120 ticks, 4 ranks, ``UpdateService(auto)``; BA 80 and 24 ticks at
    small scale): its witness test set ``rose``."""
    n_base, ticks = (80, 24) if scale.n_base < 400 else (300, 120)
    trace = synthesize_churn("steady-small", n_base=n_base, ticks=ticks, seed=1)
    per_tick = [[] for _ in range(trace.ticks)]
    for tick, event in trace.events:
        per_tick[tick].append(event)
    engine = AnytimeAnywhereCloseness(
        trace.base,
        AnytimeConfig(nprocs=4, backend="serial", collect_snapshots=False),
    )

    def drive(e):
        service = UpdateService(
            e,
            strategy="auto",
            admission=HybridAdmission(max_events=6, max_delay_ticks=3),
        )
        for events in per_tick:
            service.feed(events)
            service.step()
        service.drain()

    return captured_fold(
        monkeypatch, engine, drive, lambda rose, fell: rose is not None
    )


@pytest.mark.parametrize(
    "case, closure",
    [
        ("dense", True),
        ("sparse", False),
        ("integer", True),
        ("fell", True),
        ("rose", True),
    ],
)
def test_propagation_fold(benchmark, scale, monkeypatch, case, closure):
    """The fold on ``static-solve``'s first fold (dense: the seeded
    level sweep), on 2 % of its entries (sparse, about 7 per column: the
    push), on the same graph with integer weights 1-5 (integer: the sweep
    over a ring of six ticks), on ``batch-add``'s first fold after the
    injection (fell) and on a ``serve-churn`` deletion repair (rose): each
    one sweep from every entry of the block.  The path is asserted once
    before timing."""
    rng = np.random.default_rng(1)
    rose = fell = None
    if case == "fell":
        apsp, settled, changed, rose, fell, graph = after_injection_state(
            scale, monkeypatch
        )
    elif case == "rose":
        apsp, settled, changed, rose, fell, graph = repair_state(scale, monkeypatch)
    else:
        weights = (
            (lambda u, v: float(rng.integers(1, 6))) if case == "integer" else None
        )
        _w, apsp, settled, changed, graph = first_fold_state(scale, weights)
        if case == "sparse":
            changed &= rng.random(changed.shape) < 0.02
    dv = settled.copy()
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(
            oracle,
            "minplus_closure",
            lambda *a, _real=oracle.minplus_closure: calls.append(a[3]) or _real(*a),
        )
        KERNELS.minplus_fold(apsp, dv, changed, rose, fell, graph)
    assert bool(calls) == closure
    if case in ("fell", "rose"):  # seeded from every finite entry
        assert np.array_equal(calls[0], np.isfinite(settled))

    def restore():
        dv[...] = settled

    benchmark.pedantic(
        lambda: KERNELS.minplus_fold(apsp, dv, changed, rose, fell, graph),
        setup=restore,
        rounds=30,
    )
    benchmark.extra_info["entries"] = int(changed.sum())
    benchmark.extra_info["shape"] = list(dv.shape)
