"""The anytime property: snapshots are valid and monotonically improving."""

import numpy as np
import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.bench import community_workload
from repro.centrality import apsp_dijkstra, closeness_from_row
from repro.centrality.closeness import closeness_from_rows
from repro.core import take_snapshot
from repro.graph import Graph, barabasi_albert, random_weights


def run_with_snapshots(graph, nprocs=4, changes=None, strategy="roundrobin"):
    engine = AnytimeAnywhereCloseness(
        graph, AnytimeConfig(nprocs=nprocs, collect_snapshots=True)
    )
    engine.setup()
    result = engine.run(changes=changes, strategy=strategy)
    return engine, result


def test_snapshot_per_step_plus_ia():
    g = barabasi_albert(50, 2, seed=0)
    _engine, result = run_with_snapshots(g)
    assert len(result.snapshots) == result.rc_steps + 1
    assert result.snapshots[0].step == -1


def test_resolved_fraction_monotone_static():
    g = barabasi_albert(60, 3, seed=1)
    _engine, result = run_with_snapshots(g)
    fractions = [s.resolved_fraction for s in result.snapshots]
    assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == pytest.approx(1.0)


def test_modeled_time_monotone():
    g = barabasi_albert(60, 3, seed=2)
    _engine, result = run_with_snapshots(g)
    times = [s.modeled_seconds for s in result.snapshots]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_snapshots_are_upper_bounds():
    """Every intermediate DV entry must over-approximate the true distance
    (the anytime guarantee: interruption yields valid bounds)."""
    g = barabasi_albert(50, 2, seed=3)
    dist, ids = apsp_dijkstra(g)
    col = {v: i for i, v in enumerate(ids)}

    engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=4))
    engine.setup()
    cluster = engine.cluster
    from repro.core.recombination import run_recombination

    def check(step):
        for w in cluster.workers:
            for v in w.owned:
                row = w.dv[w.row_of[v]]
                for t in ids:
                    assert (
                        row[cluster.index.column(t)]
                        >= dist[col[v], col[t]] - 1e-9
                    )

    run_recombination(cluster, max_steps=100, on_step=check)


def test_closeness_error_monotone_under_additions():
    """Distance estimates only decrease toward the truth, so per-pair error
    is monotone; we assert the aggregate unresolved count never grows
    except when the vertex set itself grows."""
    wl = community_workload(80, 16, seed=4, inject_step=2)
    _engine, result = run_with_snapshots(wl.base, changes=wl.stream)
    prev = None
    for snap in result.snapshots:
        if prev is not None and snap.n_vertices == prev.n_vertices:
            assert snap.unresolved_pairs <= prev.unresolved_pairs
        prev = snap
    assert result.snapshots[-1].unresolved_pairs == 0


def test_snapshot_closeness_matches_engine_read():
    g = barabasi_albert(40, 2, seed=5)
    engine, result = run_with_snapshots(g)
    final_snap = result.snapshots[-1]
    assert final_snap.closeness == engine.current_closeness()


# ----------------------------------------------------------------------
# per-rank read-out == closeness_from_row per owned row, bit for bit
# ----------------------------------------------------------------------
def per_row_reference(cluster, wf_improved):
    out, unresolved = {}, 0
    for w in cluster.workers:
        unresolved += int(np.isinf(w.dv).sum())
        for v in w.owned:
            out[v] = closeness_from_row(
                w.dv[w.row_of[v]],
                self_col=cluster.index.column(v),
                wf_improved=wf_improved,
            )
    return out, unresolved


@pytest.mark.parametrize("wf_improved", [False, True])
def test_readout_matches_per_row_reference_at_every_step(wf_improved):
    """Float weights (pairwise-sum order matters), rows whose +inf counts
    differ (every interrupted step of a run), bit for bit."""
    g = random_weights(barabasi_albert(90, 2, seed=6), 0.3, 7.0, seed=8)
    engine = AnytimeAnywhereCloseness(
        g,
        AnytimeConfig(nprocs=4, seed=6, wf_improved=wf_improved, collect_snapshots=False),
    )
    engine.setup()
    cluster = engine.cluster
    counts = set()
    for _ in range(60):
        for w in cluster.workers:
            counts.update(np.isinf(w.dv).sum(axis=1).tolist())
        want, unresolved = per_row_reference(cluster, wf_improved)
        snap = take_snapshot(cluster, 0, wf_improved=wf_improved)
        assert snap.closeness == want and list(snap.closeness) == list(want)
        assert snap.unresolved_pairs == unresolved
        assert engine.current_closeness() == want
        assert engine.current_measure("closeness") == want
        if engine.run(step_budget=1).converged:
            break
    assert len(counts) > 3  # rows of one block summed different counts
    assert any(want.values())


@pytest.mark.parametrize("wf_improved", [False, True])
def test_readout_on_one_column_and_empty_ranks(wf_improved):
    lone = AnytimeAnywhereCloseness(
        Graph.from_edges([], vertices=[7]), AnytimeConfig(nprocs=2, collect_snapshots=False)
    )
    lone.setup()
    assert [w.n_local for w in lone.cluster.workers].count(0) == 1
    snap = take_snapshot(lone.cluster, 0, wf_improved=wf_improved)
    assert snap.closeness == {7: 0.0} and snap.unresolved_pairs == 0
    # more ranks than vertices, and an isolated vertex (nothing to sum)
    g = Graph.from_edges([(0, 1, 0.5), (1, 2, 0.25)], vertices=[3])
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=6, wf_improved=wf_improved, collect_snapshots=False)
    )
    engine.setup()
    engine.run()
    want, unresolved = per_row_reference(engine.cluster, wf_improved)
    snap = take_snapshot(engine.cluster, 0, wf_improved=wf_improved)
    assert snap.closeness == want and want[3] == 0.0
    assert snap.unresolved_pairs == unresolved == 6


def test_rows_helper_matches_row_function_on_random_blocks():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m, n = int(rng.integers(0, 30)), int(rng.integers(0, 300))
        rows = rng.random((m, n)) * 9 + 0.5
        rows[rng.random((m, n)) < rng.choice([0.0, 0.1, 0.5, 1.0])] = np.inf
        self_cols = rng.integers(0, max(n, 1), size=m)
        if n:
            rows[np.arange(m), self_cols] = 0.0
        for wf_improved in (False, True):
            got = closeness_from_rows(rows, self_cols, wf_improved=wf_improved)
            want = [
                closeness_from_row(rows[i], self_col=int(self_cols[i]), wf_improved=wf_improved)
                for i in range(m)
            ]
            assert got.tolist() == want
