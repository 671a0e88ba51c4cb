"""Ablation — DD-phase partitioner choice.

DESIGN.md: "multilevel vs spectral vs BFS-growing vs hashing: cut size,
balance, and downstream RC cost."  The paper delegates this choice to
ParMETIS; this ablation quantifies why a cut-minimizing partitioner is the
right default (boundary-DV traffic scales with the cut).

``test_multilevel_partition_wall`` times the multilevel partitioner alone
(the DD layer of every e2e workload) and counts the FM refinement visits
and the connectivity-dict rebuilds they needed.
"""

import statistics
import time

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.graph import barabasi_albert, holme_kim, random_weights
from repro.partition import (
    BFSGrowingPartitioner,
    HashPartitioner,
    MultilevelPartitioner,
    RoundRobinPartitioner,
    SpectralPartitioner,
    edge_cut,
    multilevel,
    partition_report,
    refinement,
)

COLUMNS = ["partitioner", "edge_cut", "balance", "pipeline_modeled_s"]


def run_all(scale):
    graph = holme_kim(scale.n_base, scale.m, p_triad=0.7, seed=scale.seed)
    rows = []
    for part in (
        MultilevelPartitioner(seed=scale.seed),
        SpectralPartitioner(seed=scale.seed),
        BFSGrowingPartitioner(seed=scale.seed),
        HashPartitioner(),
        RoundRobinPartitioner(),
    ):
        rep = partition_report(graph, part.partition(graph, scale.nprocs))
        engine = AnytimeAnywhereCloseness(
            graph,
            AnytimeConfig(
                nprocs=scale.nprocs, partitioner=part,
                collect_snapshots=False, seed=scale.seed,
            ),
        )
        engine.setup()
        result = engine.run()
        rows.append(
            {
                "partitioner": part.name,
                "edge_cut": rep["edge_cut"],
                "balance": rep["balance"],
                "pipeline_modeled_s": result.modeled_seconds,
            }
        )
    return rows


def test_partitioner_ablation(benchmark, scale, emit):
    rows = benchmark.pedantic(lambda: run_all(scale), rounds=1, iterations=1)
    emit("ablation_partitioners", rows, COLUMNS)
    by_name = {r["partitioner"]: r for r in rows}
    ml = by_name["MultilevelPartitioner"]
    # the METIS-style partitioner must beat the structure-oblivious ones on
    # cut, and that must translate into a faster pipeline
    for oblivious in ("HashPartitioner", "RoundRobinPartitioner"):
        assert ml["edge_cut"] < by_name[oblivious]["edge_cut"]
        assert (
            ml["pipeline_modeled_s"]
            < by_name[oblivious]["pipeline_modeled_s"]
        )


WALL_COLUMNS = ["graph", "n", "edge_cut", "visits", "rebuilds", "median_s"]

#: partitioner inputs on ``n`` vertices; ``n = 9 * n_base`` is the e2e
#: ``setup-large`` graph (3600 vertices) at the default scale
WALL_GRAPHS = {
    "ba": lambda n: barabasi_albert(n, 3, seed=1),
    "holme-kim-float": lambda n: random_weights(
        holme_kim(n, 3, p_triad=0.7, seed=1), 0.1, 2.5, seed=1
    ),
}


class _CountingRng:
    """Delegates ``shuffle`` to ``rng``; every refinement pass shuffles the
    vertices it then visits once each, so the lengths sum to the visits."""

    def __init__(self, rng):
        self.rng = rng
        self.visits = 0

    def shuffle(self, order):
        self.visits += len(order)
        self.rng.shuffle(order)


def _counted_partition(part, graph, nparts, monkeypatch):
    """``part.partition`` with refinement visits and connectivity-dict
    rebuilds counted (same rng draws, same result)."""
    counts = {"visits": 0, "rebuilds": 0}
    rebuild, refine = refinement._neighbor_block_weights, multilevel.refine_level

    def counted_rebuild(*args):
        counts["rebuilds"] += 1
        return rebuild(*args)

    def counted_refine(*args, rng, **kwargs):
        counting = _CountingRng(rng)
        out = refine(*args, rng=counting, **kwargs)
        counts["visits"] += counting.visits
        return out

    with monkeypatch.context() as patch:
        patch.setattr(refinement, "_neighbor_block_weights", counted_rebuild)
        patch.setattr(multilevel, "refine_level", counted_refine)
        return part.partition(graph, nparts), counts


def test_multilevel_partition_wall(scale, monkeypatch, emit):
    """Median wall of 7 ``MultilevelPartitioner(seed=0).partition`` calls
    into 4 parts per input, beside its cut, visits and rebuilds."""
    rows = []
    for name, make in WALL_GRAPHS.items():
        graph = make(9 * scale.n_base)
        part = MultilevelPartitioner(seed=0)
        counted, counts = _counted_partition(part, graph, 4, monkeypatch)
        walls = []
        for _ in range(7):
            t0 = time.perf_counter()
            timed = part.partition(graph, 4)
            walls.append(time.perf_counter() - t0)
        assert timed.assignment == counted.assignment
        # a dict is rebuilt only after a neighbour moved
        assert counts["rebuilds"] < counts["visits"]
        rows.append(
            {
                "graph": name,
                "n": graph.num_vertices,
                "edge_cut": edge_cut(graph, timed),
                **counts,
                "median_s": statistics.median(walls),
            }
        )
    emit("partition_wall", rows, WALL_COLUMNS)
