"""Edge addition / deletion / reweight correctness (anywhere strategies)."""

import dataclasses

import pytest

import repro.runtime.kernels.oracle as oracle
from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.graph import ChangeBatch, barabasi_albert, random_weights
from repro.graph.changes import EdgeAddition, EdgeDeletion, EdgeReweight
from repro.core.strategies import EdgeAdditionStrategy, EdgeDeletionStrategy
from repro.runtime import Worker

from ..conftest import cycle_graph, path_graph, run_and_verify
from ..test_harness import FIXED, Scenario, assert_backend_invariant, run
from ..test_harness import same_rank_pairs


def apply_all(graph, batches):
    final = graph.copy()
    for _s, b in sorted(batches.items()):
        b.apply_to(final)
    return final


class TestEdgeAddition:
    @pytest.mark.parametrize("inject_step", [0, 1, 3])
    def test_shortcut_edge(self, inject_step):
        g = path_graph(12)
        batch = ChangeBatch(edge_additions=[EdgeAddition(0, 11, 1.0)])
        stream = ChangeStream({inject_step: batch})
        run_and_verify(
            g, changes=stream, final=apply_all(g, {0: batch}), nprocs=3
        )

    def test_many_edges_scale_free(self):
        g = barabasi_albert(70, 2, seed=1)
        additions = [
            EdgeAddition(i, 69 - i, 1.0)
            for i in range(5)
            if not g.has_edge(i, 69 - i)
        ]
        batch = ChangeBatch(edge_additions=additions)
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=4,
        )

    def test_weighted_edge_addition(self):
        g = random_weights(barabasi_albert(50, 2, seed=2), 1.0, 5.0, seed=2)
        batch = ChangeBatch(edge_additions=[EdgeAddition(3, 47, 0.5)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=4,
        )

    def test_duplicate_heavier_edge_is_noop(self):
        g = path_graph(6)
        batch = ChangeBatch(edge_additions=[EdgeAddition(0, 1, 50.0)])
        final = g.copy()  # heavier duplicate collapses to existing weight
        run_and_verify(
            g, changes=ChangeStream({1: batch}), final=final, nprocs=2
        )

    def test_strategy_rejects_vertex_changes(self):
        from repro.graph.changes import VertexAddition

        g = path_graph(4)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
        engine.setup()
        stream = ChangeStream(
            {0: ChangeBatch(vertex_additions=[VertexAddition(9)])}
        )
        with pytest.raises(ValueError):
            engine.run(changes=stream, strategy=EdgeAdditionStrategy())


class TestEdgeDeletion:
    @pytest.mark.parametrize("inject_step", [0, 2])
    def test_delete_bridge(self, inject_step):
        g = cycle_graph(12)
        batch = ChangeBatch(edge_deletions=[EdgeDeletion(0, 11)])
        run_and_verify(
            g,
            changes=ChangeStream({inject_step: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=3,
        )

    def test_disconnecting_deletion(self):
        g = path_graph(8)
        batch = ChangeBatch(edge_deletions=[EdgeDeletion(3, 4)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=2,
        )

    def test_multiple_deletions(self):
        g = barabasi_albert(60, 3, seed=4)
        edges = [e for e in g.edge_list()][::11][:4]
        batch = ChangeBatch(
            edge_deletions=[EdgeDeletion(u, v) for u, v, _w in edges]
        )
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=4,
        )

    def test_delete_then_add_back(self):
        g = cycle_graph(10)
        stream = ChangeStream(
            {
                1: ChangeBatch(edge_deletions=[EdgeDeletion(0, 9)]),
                3: ChangeBatch(edge_additions=[EdgeAddition(0, 9, 1.0)]),
            }
        )
        run_and_verify(g, changes=stream, final=g.copy(), nprocs=3)


class TestReweight:
    def test_reweight_decrease(self):
        g = random_weights(cycle_graph(10), 2.0, 4.0, seed=1)
        batch = ChangeBatch(edge_reweights=[EdgeReweight(0, 1, 0.1)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=3,
        )

    def test_reweight_increase(self):
        g = random_weights(cycle_graph(10), 1.0, 2.0, seed=2)
        batch = ChangeBatch(edge_reweights=[EdgeReweight(0, 1, 50.0)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=3,
        )

    def test_reweight_same_weight_noop(self):
        g = path_graph(6)
        batch = ChangeBatch(edge_reweights=[EdgeReweight(0, 1, 1.0)])
        run_and_verify(
            g, changes=ChangeStream({1: batch}), final=g.copy(), nprocs=2
        )

    def test_deletion_strategy_rejects_vertex_changes(self):
        from repro.graph.changes import VertexDeletion

        g = path_graph(4)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
        engine.setup()
        stream = ChangeStream(
            {0: ChangeBatch(vertex_deletions=[VertexDeletion(0)])}
        )
        with pytest.raises(ValueError):
            engine.run(changes=stream, strategy=EdgeDeletionStrategy())

    def test_deletion_strategy_applies_additions_first(self):
        """A batch may delete and reweight edges it adds (``validate``
        checks it in that order), also when it reaches the strategy whole."""
        g = path_graph(6)
        batch = ChangeBatch(
            edge_additions=[EdgeAddition(0, 5, 1.0), EdgeAddition(1, 4, 1.0)],
            edge_deletions=[EdgeDeletion(5, 0)],
            edge_reweights=[EdgeReweight(1, 4, 3.0)],
        )
        run_and_verify(
            g, changes=ChangeStream({1: batch}), strategy=EdgeDeletionStrategy(),
            final=apply_all(g, {0: batch}), nprocs=2,
        )


def test_mixed_add_delete_reweight_stream_is_backend_and_tier_invariant(
    monkeypatch, fresh_pool
):
    """Additions, deletions and both reweight directions interleaved, two
    deletions ahead of one fold, a repair pending while edges are added,
    and intra-rank edges (shortcuts, a reweight-down, a reweight-up's
    delete-then-add) that lower ``local_apsp`` pairs: the full folds and
    the pushes must give the same bits wherever they run — serial, pool
    children (the fold's kind rides in the task), and the speculative
    backup of a straggling rank.  A reweight to 0.5 makes a rank's local
    weights fractional, so its full folds run the rectangle.  The stream is the harness's
    ``mixed-stream``, run uninterrupted.

    Steps 6-9 walk rank 1 through both sweeps of IA: its uniform weights
    take the level sweep at setup; a reweight-up leaves it mixed integers,
    so the next local-APSP rebuild (after a deletion) takes the Dial sweep;
    a reweight back to the common weight returns the rebuild after that to
    the level sweep.

    The closure fold's cost rule is switched off, so every push on a rank
    whose weights and entries are integral runs as the seeded sweep over
    the rank's local CSR — everywhere, pool children included (they fork
    after the patch) — and must track each rebuild and drop of that CSR
    (the harness checks the invariants after every superstep)."""
    rectangles = []
    rectangle = oracle.minplus_fold

    def spy(apsp, dv, rows, cols):
        rectangles.append(len(rows) * len(cols))
        return rectangle(apsp, dv, rows, cols)

    # per in-process local-APSP call: (rank, weights uniform, level sweep
    # ran, Dial sweep finished)
    ia_calls = []
    rank_of_matrix = {}
    ia_prepare, apsp_rows, level_sweep, dial_rows = (
        Worker.ia_prepare, oracle.local_apsp_rows, oracle._level_sweep,
        oracle._dial_rows,
    )

    def prepare_spy(worker):
        task = ia_prepare(worker)
        if task is not None:
            rank_of_matrix[id(task.matrix)] = worker.rank
        return task

    def rows_spy(matrix, lo, hi, out):
        data = matrix.data
        # (a pool child holds an unpickled copy: no rank, and its list is its own)
        ia_calls.append(
            [rank_of_matrix.get(id(matrix)), (data == data[0]).all(), False, False]
        )
        apsp_rows(matrix, lo, hi, out)

    def sweep_spy(*args):
        ia_calls[-1][2] = True
        return level_sweep(*args)

    def dial_spy(*args):
        ia_calls[-1][3] = dial_rows(*args)
        return ia_calls[-1][3]

    closures = []
    closure = oracle.minplus_closure

    def closure_spy(graph, apsp, dv, changed):
        closures.append(int(changed.sum()))
        return closure(graph, apsp, dv, changed)

    monkeypatch.setattr(oracle, "_CLOSURE_MIN_ENTRIES", 0)
    monkeypatch.setattr(oracle, "minplus_closure", closure_spy)
    monkeypatch.setattr(oracle, "minplus_fold", spy)
    monkeypatch.setattr(Worker, "ia_prepare", prepare_spy)
    monkeypatch.setattr(oracle, "local_apsp_rows", rows_spy)
    monkeypatch.setattr(oracle, "_level_sweep", sweep_spy)
    monkeypatch.setattr(oracle, "_dial_rows", dial_spy)
    s = dataclasses.replace(FIXED["mixed-stream"], budget=None)
    assert_backend_invariant(s)
    assert len(rectangles) >= 8 and min(rectangles) > 0  # the in-process runs
    assert closures
    assert all(uniform == swept for _rank, uniform, swept, _dial in ia_calls)
    # one serial run, every IA call in process: setup sweeps every rank
    ia_calls.clear()
    run(s, "serial", "delta", None)
    assert [c[1:] for c in ia_calls[:4]] == [[True, True, False]] * 4
    assert all(uniform == swept for _rank, uniform, swept, _dial in ia_calls)
    on_rank1 = [c[1:] for c in ia_calls if c[0] == 1]
    mixed = on_rank1.index([False, False, True])  # after step 6: the Dial sweep
    assert [True, True, False] in on_rank1[mixed:]  # after step 8: the level sweep


def test_float_weight_local_edge_stream_is_exact_and_anytime():
    """General float weights, intra-rank additions and reweight-downs: path
    sums round, so the result is checked to 1e-9, not bitwise — and every
    interrupted DV stays an upper bound: the harness checks the bound after
    every superstep, and the run stops after its first step
    (``step_budget=1``) and resumes."""
    base = random_weights(barabasi_albert(64, 3, seed=12), 0.5, 9.0, seed=19)
    local_absent = same_rank_pairs(base, 4, 5, present=False)
    local_edges = same_rank_pairs(base, 4, 5, present=True)
    ticks = (
        ChangeBatch(
            edge_additions=[EdgeAddition(*local_absent[3], 0.37)],
            edge_reweights=[EdgeReweight(*local_edges[2], 0.21)],
        ),
        ChangeBatch(
            edge_additions=[
                EdgeAddition(*p, 0.1 * (i + 3))
                for i, p in enumerate(local_absent[40:240:50])
            ]
        ),
        None,
        ChangeBatch(edge_reweights=[EdgeReweight(*local_edges[-2], 0.45)]),
    )
    s = Scenario(tuple(base.edge_list()), ticks, nprocs=4, seed=5)
    run(s, "serial", "delta", 1)
