"""Micro-benchmarks of the hot worker kernels (real wall time).

These are classic pytest-benchmark timing loops over the kernels that
dominate the pipeline's Python runtime: the IA-phase local APSP, the
edge-batch relaxation, the boundary-DV cut relaxation and the RC step's
propagation fold.
"""

import time
from collections import Counter

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
    # unit weights, a rank holds a long arc of a ring: the sweep outruns
    # its level budget and bails out to Dijkstra (an arc of a ring of
    # n_base vertices is swept whole within the budget's floor)
    "ring-lattice": lambda s: watts_strogatz(8 * s.n_base, 4, 0.0, seed=s.seed),
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
    result = KERNELS.run_superstep(task, *w.entries.kernel_arrays())
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


def edge_batch_calls(scale, monkeypatch):
    """Every rank's relaxation of ``batch-add``'s injected batch (the BA
    community batch of :func:`after_injection_state`) with the block it
    ran on: ``[(worker, dv, changed, dirty, args)]``."""
    n_base, n_new = (150, 15) if scale.n_base < 400 else (700, 70)
    wl = community_workload(n_base, n_new, seed=1, inject_step=2)
    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, backend="serial", collect_snapshots=False)
    )
    seen = []
    real = Worker.relax_with_edge_rows

    def spy(w, *args):
        dirty = w.entries.dirty_cols.copy()
        seen.append((w, w.dv.copy(), w.dv_changed.copy(), dirty, args))
        return real(w, *args)

    with engine, monkeypatch.context() as patch:
        patch.setattr(Worker, "relax_with_edge_rows", spy)
        engine.setup()
        engine.run(changes=wl.stream, strategy="cutedge")
    return seen


def test_edge_batch_relaxation_kernel(benchmark, scale, monkeypatch):
    """The whole injected batch on every rank, each block restored before
    each round.  Checked once before timing: one call per rank, and the
    batch has fewer endpoints ``|H|`` than twice its edges (what one
    closure over the endpoints saves over a relaxation per edge)."""
    calls = edge_batch_calls(scale, monkeypatch)
    cols, _closure, rows, edges = calls[0][4]
    assert len(calls) == 4 and cols.size < 2 * edges

    def restore():
        for w, dv, changed, dirty, _args in calls:
            w.dv[...] = dv
            w.dv_changed[...] = changed
            w.entries.dirty_cols[...] = dirty

    per_rank = []
    for w, *_block, args in calls:
        restore()
        start = time.perf_counter()
        w.relax_with_edge_rows(*args)
        per_rank.append(round(time.perf_counter() - start, 6))

    benchmark.pedantic(
        lambda: [w.relax_with_edge_rows(*args) for w, *_block, args in calls],
        setup=restore,
        rounds=20,
    )
    benchmark.extra_info["edges"] = edges
    benchmark.extra_info["endpoints"] = int(cols.size)
    benchmark.extra_info["finite_rows"] = int((np.isfinite(rows).sum(axis=1) > 1).sum())
    benchmark.extra_info["per_rank_s"] = per_rank


def test_dv_gather_kernel(benchmark, scale):
    """Row extraction for Repartition-S migration."""
    _graph, w = build(scale)
    w.run_initial_approximation()
    benchmark(lambda: w.extract_rows(w.owned))


def first_superstep(scale, weights=None):
    """The ranks of ``static-solve`` (BA 1000, m = 3, 2 ranks; 600 vertices
    at small scale) with their first RC superstep's tasks, its edges
    reweighted by ``weights(u, v)`` if given: every boundary row has just
    arrived and nothing is relaxed yet.  Returns ``[(worker, task)]``."""
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
        return [(w, w.superstep_prepare()) for w in engine.cluster.workers]


def first_fold_state(scale, weights=None):
    """The first RC fold of :func:`first_superstep`: every boundary row has
    just relaxed against every external row.  Returns the fuller rank and
    its fold inputs."""
    tasks = first_superstep(scale, weights)
    for w, task in tasks:
        KERNELS.relax_cut(
            w.dv, w.dv_changed, task.dirty_cols, w.entries.rows, task.relax_items
        )
    w = max((w for w, _task in tasks), key=lambda w: int(w.dv_changed.sum()))
    apsp, dv, changed = w.local_apsp.copy(), w.dv.copy(), w.dv_changed.copy()
    return w, apsp, dv, changed, w.entries.local_csr


def test_cut_relaxation_kernel(benchmark, scale):
    """``KERNELS.relax_cut`` alone on the rank of :func:`first_superstep`
    with the most cut-edge relaxations, ``dv`` and its marks restored
    before each round.  Some destination ``(row, weight)`` is fed by two
    or more stored rows — what the per-row min-reduce saves — checked
    once before timing."""
    w, task = max(first_superstep(scale), key=lambda wt: wt[1].n_relaxations)
    fan_in = Counter(key for _slot, pairs in task.relax_items for key in pairs)
    assert max(fan_in.values()) >= 2
    dv, changed, dirty = w.dv, w.dv_changed, task.dirty_cols
    settled, marks, dirty_settled = dv.copy(), changed.copy(), dirty.copy()

    def restore():
        dv[...] = settled
        changed[...] = marks
        dirty[...] = dirty_settled

    benchmark.pedantic(
        lambda: KERNELS.relax_cut(
            dv, changed, dirty, w.entries.rows, task.relax_items
        ),
        setup=restore,
        rounds=50,
    )
    benchmark.extra_info["pairs"] = task.n_relaxations
    benchmark.extra_info["destinations"] = len(fan_in)


def captured_fold(monkeypatch, engine, drive):
    """The inputs of the first full fold (``changed=None``) of
    ``drive(engine)``, copied before it ran: ``(apsp, dv, graph)``."""
    seen = []
    real = KernelTier.minplus_fold

    def spy(kernels, apsp, dv, changed, graph=None):
        if not seen and changed is None:
            seen.append((apsp.copy(), dv.copy(), graph))
        return real(kernels, apsp, dv, changed, graph)

    with engine, monkeypatch.context() as patch:
        patch.setattr(KernelTier, "minplus_fold", spy)
        engine.setup()
        drive(engine)
    return seen[0]


def after_injection_state(scale, monkeypatch):
    """The first full fold after ``batch-add``'s injection (BA community
    batch, 700 + 70 vertices on 4 ranks under CutEdge-PS; 150 + 15 at
    small scale): a local edge lowered a pair of ``local_apsp``."""
    n_base, n_new = (150, 15) if scale.n_base < 400 else (700, 70)
    wl = community_workload(n_base, n_new, seed=1, inject_step=2)
    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, backend="serial", collect_snapshots=False)
    )
    return captured_fold(
        monkeypatch,
        engine,
        lambda e: e.run(changes=wl.stream, strategy="cutedge"),
    )


def repair_state(scale, monkeypatch):
    """The first full fold of ``serve-churn`` (``steady-small`` on BA 300,
    120 ticks, 4 ranks, ``UpdateService(auto)``; BA 80 and 24 ticks at
    small scale): after a deletion, a reweight or a local edge."""
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

    return captured_fold(monkeypatch, engine, drive)


@pytest.mark.parametrize(
    "case, closure",
    [
        ("dense", True),
        ("sparse", False),
        ("integer", True),
        ("after-injection", True),
        ("repair", True),
    ],
)
def test_propagation_fold(benchmark, scale, monkeypatch, case, closure):
    """The fold on ``static-solve``'s first fold (dense: the seeded
    level sweep), on 2 % of its entries (sparse, about 7 per column: the
    push), on the same graph with integer weights 1-5 (integer: the sweep
    over a ring of six ticks), on ``batch-add``'s first full fold after
    the injection and on a ``serve-churn`` deletion repair: each one sweep
    from every entry of the block.  The path is asserted once before
    timing."""
    rng = np.random.default_rng(1)
    changed = None
    if case == "after-injection":
        apsp, settled, graph = after_injection_state(scale, monkeypatch)
    elif case == "repair":
        apsp, settled, graph = repair_state(scale, monkeypatch)
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
        KERNELS.minplus_fold(apsp, dv, changed, graph)
    assert bool(calls) == closure
    if changed is None:  # seeded from every finite entry
        assert np.array_equal(calls[0], np.isfinite(settled))

    def restore():
        dv[...] = settled

    benchmark.pedantic(
        lambda: KERNELS.minplus_fold(apsp, dv, changed, graph),
        setup=restore,
        rounds=30,
    )
    benchmark.extra_info["entries"] = int(
        np.isfinite(settled).sum() if changed is None else changed.sum()
    )
    benchmark.extra_info["shape"] = list(dv.shape)
