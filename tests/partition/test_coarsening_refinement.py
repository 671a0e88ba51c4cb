"""Tests for the multilevel building blocks: matching, contraction, FM."""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnytimeConfig
from repro.graph import (
    Graph,
    barabasi_albert,
    erdos_renyi,
    holme_kim,
    planted_partition,
)
from repro.partition import MultilevelPartitioner, edge_cut, multilevel
from repro.partition.coarsening import (
    Level,
    contract,
    heavy_edge_matching,
    level_from_graph,
)
from repro.partition.refinement import block_weights, compute_cut, refine_level

from ..conftest import complete_graph, path_graph


def make_level(n=60, m=3, seed=0):
    return level_from_graph(barabasi_albert(n, m, seed=seed))


class TestMatching:
    def test_matching_is_symmetric(self):
        level = make_level()
        mate = heavy_edge_matching(level, np.random.default_rng(0), 1e9)
        for v, u in mate.items():
            assert mate[u] == v

    def test_matching_covers_all_vertices(self):
        level = make_level()
        mate = heavy_edge_matching(level, np.random.default_rng(0), 1e9)
        assert set(mate) == set(level.adj)

    def test_matched_pairs_are_adjacent(self):
        level = make_level()
        mate = heavy_edge_matching(level, np.random.default_rng(0), 1e9)
        for v, u in mate.items():
            if u != v:
                assert u in level.adj[v]

    def test_weight_cap_respected(self):
        level = make_level()
        # cap = 1.0 forbids all matches (every vertex weighs 1)
        mate = heavy_edge_matching(level, np.random.default_rng(0), 1.0)
        assert all(u == v for v, u in mate.items())

    def test_prefers_heavy_edge(self):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1, 1.0), (0, 2, 10.0)])
        level = level_from_graph(g)
        mate = heavy_edge_matching(level, np.random.default_rng(0), 1e9)
        assert mate[0] == 2 or mate[2] == 0


class TestContraction:
    def test_vertex_weight_conserved(self):
        level = make_level()
        mate = heavy_edge_matching(level, np.random.default_rng(1), 1e9)
        coarse = contract(level, mate)
        assert coarse.total_vertex_weight() == level.total_vertex_weight()

    def test_shrinks_graph(self):
        level = make_level()
        mate = heavy_edge_matching(level, np.random.default_rng(1), 1e9)
        coarse = contract(level, mate)
        assert coarse.num_vertices < level.num_vertices

    def test_fine_to_coarse_total(self):
        level = make_level()
        mate = heavy_edge_matching(level, np.random.default_rng(1), 1e9)
        coarse = contract(level, mate)
        assert set(coarse.fine_to_coarse) == set(level.adj)
        assert set(coarse.fine_to_coarse.values()) == set(coarse.adj)

    def test_cut_weight_preserved_under_projection(self):
        """Any partition of the coarse graph has the same cut weight as its
        projection to the fine graph (self-collapsed edges excluded)."""
        level = make_level(40, 2, seed=2)
        mate = heavy_edge_matching(level, np.random.default_rng(2), 1e9)
        coarse = contract(level, mate)
        assign_c = {v: v % 3 for v in coarse.adj}
        assign_f = {v: assign_c[coarse.fine_to_coarse[v]] for v in level.adj}
        assert compute_cut(coarse, assign_c) == pytest.approx(
            compute_cut(level, assign_f)
        )


class TestRefinement:
    def test_never_increases_cut(self):
        level = make_level(80, 3, seed=3)
        rng = np.random.default_rng(3)
        assign = {v: int(rng.integers(4)) for v in level.adj}
        before = compute_cut(level, assign)
        refined = refine_level(
            level, assign, 4, max_load=1e9, rng=np.random.default_rng(0)
        )
        assert compute_cut(level, refined) <= before

    def test_respects_max_load(self):
        level = make_level(60, 2, seed=4)
        assign = {v: v % 4 for v in level.adj}
        max_load = 60 / 4 * 1.2
        refined = refine_level(
            level, assign, 4, max_load=max_load, rng=np.random.default_rng(0)
        )
        loads = block_weights(level, refined, 4)
        assert max(loads) <= max_load + 1e-9

    def test_fixes_obvious_misplacement(self):
        # path 0-1-2-3-4-5 split as {0,2,4},{1,3,5} (awful); refinement
        # should find a contiguous split
        level = level_from_graph(path_graph(6))
        assign = {v: v % 2 for v in level.adj}
        refined = refine_level(
            level, assign, 2, max_load=4.0, rng=np.random.default_rng(0)
        )
        assert compute_cut(level, refined) <= 2.0

    def test_clique_stays_together_when_balance_allows(self):
        level = level_from_graph(complete_graph(6))
        assign = {v: v % 2 for v in level.adj}
        refined = refine_level(
            level, assign, 2, max_load=6.0, rng=np.random.default_rng(0)
        )
        assert compute_cut(level, refined) == 0.0  # all six vertices fit in one block


# ---------------------------------------------------------------------------
# Exactness differential: ``refine_level`` keeps a vertex's connectivity
# dict until a neighbour moves; the reference below rebuilds it on every
# visit.  Both must make the same moves in the same order, bit for bit.
# ---------------------------------------------------------------------------


def _reference_neighbor_block_weights(
    level: Level, assign: Dict[int, int], v: int
) -> Dict[int, float]:
    """Edge weight from ``v`` to each block among its neighbors."""
    conn: Dict[int, float] = {}
    for u, w in level.adj[v].items():
        r = assign[u]
        conn[r] = conn.get(r, 0.0) + w
    return conn


def _reference_refine_level(
    level: Level,
    assign: Dict[int, int],
    nparts: int,
    *,
    max_load: "float | Sequence[float]",
    max_passes: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Dict[int, int], float]:
    """The per-visit-rebuild ``refine_level``, kept verbatim as the oracle
    (fallback rng and returned cut included)."""
    rng = rng or np.random.default_rng(0)
    assign = dict(assign)
    if isinstance(max_load, (int, float)):
        caps = [float(max_load)] * nparts
    else:
        caps = [float(c) for c in max_load]
        if len(caps) != nparts:
            raise ValueError(f"need {nparts} caps, got {len(caps)}")
    loads = block_weights(level, assign, nparts)
    total_load = sum(loads)
    # with tight caps (a genuine balance constraint) blocks must not be
    # drained far below their share — refinement moves only along edges,
    # so an emptied block can never be refilled; with loose caps the
    # caller explicitly tolerates imbalance and consolidation is allowed
    tight_balance = sum(caps) <= 1.5 * total_load if total_load else False

    def rel(r: int, load: float) -> float:
        """Load relative to the block's capacity (heterogeneous targets)."""
        return load / caps[r] if caps[r] > 0 else float("inf")

    for _pass in range(max_passes):
        moved = 0
        order = sorted(level.adj)
        rng.shuffle(order)
        for v in order:
            rv = assign[v]
            conn = _reference_neighbor_block_weights(level, assign, v)
            internal = conn.get(rv, 0.0)
            wv = level.vwgt[v]
            best_r, best_gain = rv, 0.0
            for r, ext in conn.items():
                if r == rv:
                    continue
                # a move over the target's cap is only tolerated when it
                # still improves *relative* balance (escape valve for
                # projections that arrive badly imbalanced)
                if loads[r] + wv > caps[r] and rel(r, loads[r] + wv) >= rel(
                    rv, loads[rv]
                ):
                    continue
                if tight_balance and rel(rv, loads[rv] - wv) < 0.45:
                    continue  # see tight_balance note above
                gain = ext - internal
                better_balance = rel(r, loads[r] + wv) < rel(rv, loads[rv])
                if gain > best_gain or (
                    gain == best_gain and best_r == rv and gain == 0.0
                    and better_balance
                ):
                    best_gain, best_r = gain, r
            if best_r != rv:
                assign[v] = best_r
                loads[rv] -= wv
                loads[best_r] += wv
                moved += 1
        if moved == 0:
            break
    return assign, compute_cut(level, assign)


_GRAPH_KINDS = (
    "ba", "erdos_renyi", "holme_kim", "planted", "path", "complete", "isolated"
)
_FLOAT_WEIGHTS = (0.1, 1 / 3, 1.7, 2.5)


def _graph(kind: str, n: int, weights: str, seed: int) -> Graph:
    """A ``kind`` graph on ``n`` vertices with ``unit`` / ``int`` / ``float``
    edge weights (``isolated``: a BA graph plus one vertex of degree 0)."""
    if kind == "ba":
        g = barabasi_albert(n, 2, seed=seed)
    elif kind == "erdos_renyi":
        g = erdos_renyi(n, 4.0 / n, seed=seed)
    elif kind == "holme_kim":
        g = holme_kim(n, 2, 0.7, seed=seed)
    elif kind == "planted":
        third = n // 3
        g, _blocks = planted_partition(
            [third, third, n - 2 * third], 0.4, 0.03, seed=seed
        )
    elif kind == "path":
        g = path_graph(n)
    elif kind == "complete":
        g = complete_graph(min(n, 14))
    else:
        g = barabasi_albert(n - 1, 2, seed=seed)
        g.add_vertex(n - 1)
    if weights == "unit":
        return g
    rng = np.random.default_rng(seed)
    out = Graph()
    for v in g.vertices():
        out.add_vertex(v)
    for u, v, _w in g.edges():
        if weights == "int":
            w = float(rng.integers(1, 6))
        else:
            w = _FLOAT_WEIGHTS[int(rng.integers(len(_FLOAT_WEIGHTS)))]
        out.add_edge(u, v, w)
    return out


def _caps(draw, total: float, nparts: int, tight: bool, per_block: bool):
    """Scalar or per-block caps summing to ``slack * total``: tight
    balance (``sum(caps) <= 1.5 * total``) iff ``tight``."""
    slack = draw(st.sampled_from((1.05, 1.3) if tight else (2.0, 4.0)))
    if not per_block:
        return slack * total / nparts
    shares = [draw(st.integers(1, 4)) for _ in range(nparts)]
    return [slack * total * s / sum(shares) for s in shares]


@st.composite
def refine_cases(draw):
    """(level, start assignment, nparts, max_load, rng seed)."""
    kind = draw(st.sampled_from(_GRAPH_KINDS + ("self_loop",)))
    n = draw(st.integers(12, 70))
    seed = draw(st.integers(0, 2**16))
    weights = draw(st.sampled_from(("unit", "int", "float")))
    nparts = draw(st.integers(2, 8))
    graph = _graph("isolated" if kind == "self_loop" else kind, n, weights, seed)
    level = level_from_graph(graph)
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # a coarse level: vertex weights above 1
        level = contract(level, heavy_edge_matching(level, rng, 3.0))
    if kind == "self_loop":  # never built by coarsening; legal in a Level
        v = min(level.adj)
        level.adj[v][v] = _FLOAT_WEIGHTS[seed % len(_FLOAT_WEIGHTS)]
    if draw(st.sampled_from(("random", "projected"))) == "random":
        assign = {v: int(rng.integers(nparts)) for v in level.adj}
    else:
        coarse = contract(level, heavy_edge_matching(level, rng, 1e9))
        coarse_assign = {c: int(rng.integers(nparts)) for c in coarse.adj}
        assign = {v: coarse_assign[coarse.fine_to_coarse[v]] for v in level.adj}
    max_load = _caps(
        draw, level.total_vertex_weight(), nparts,
        tight=draw(st.booleans()), per_block=draw(st.booleans()),
    )
    return level, assign, nparts, max_load, draw(st.integers(0, 2**16))


@st.composite
def partition_cases(draw):
    """(graph, nparts, partitioner) for the end-to-end differential."""
    kind = draw(st.sampled_from(_GRAPH_KINDS))
    n = draw(st.integers(20, 160))
    graph = _graph(
        kind, n, draw(st.sampled_from(("unit", "int", "float"))),
        draw(st.integers(0, 2**16)),
    )
    nparts = draw(st.integers(2, 8))
    # tight balance iff (1 + epsilon) <= 1.5
    epsilon = draw(st.sampled_from((0.03, 0.3, 0.8, 3.0)))
    target_weights = None
    if draw(st.booleans()):
        target_weights = [draw(st.integers(1, 4)) for _ in range(nparts)]
    partitioner = MultilevelPartitioner(
        epsilon=epsilon,
        coarsen_to=draw(st.sampled_from((8, 64))),
        seed=draw(st.integers(0, 2**16)),
        target_weights=target_weights,
    )
    return graph, nparts, partitioner


class TestRefinementExactness:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=refine_cases())
    def test_equals_per_visit_rebuild(self, case):
        level, assign, nparts, max_load, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = refine_level(level, assign, nparts, max_load=max_load, rng=rng)
        want, want_cut = _reference_refine_level(
            level, assign, nparts, max_load=max_load, rng=ref_rng
        )
        assert list(got.items()) == list(want.items())
        assert compute_cut(level, got) == want_cut
        # one shuffle of the same length per pass
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=partition_cases())
    def test_partition_equals_per_visit_rebuild(self, case):
        graph, nparts, partitioner = case
        got = partitioner.partition(graph, nparts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                multilevel, "refine_level",
                lambda *a, **k: _reference_refine_level(*a, **k)[0],
            )
            want = partitioner.partition(graph, nparts)
        assert list(got.assignment.items()) == list(want.assignment.items())

    def test_self_loop_mover_rebuilds_its_own_dict(self):
        """Vertex 0 (self-loop 1.0) moves 0 -> 1 on gain 2 - 1, tying
        blocks 1 and 2 at 2.0.  Its rebuilt dict counts the loop in block 1,
        so the balance-only move to 2 has gain -1 and is refused; a dict
        kept from before the move would see gain 0 and take it."""
        adj = {
            0: {1: 2.0, 2: 2.0, 0: 1.0},
            1: {0: 2.0, 3: 10.0},
            2: {0: 2.0, 4: 10.0},
            3: {1: 10.0, 5: 10.0},
            4: {2: 10.0},
            5: {3: 10.0},
        }
        level = Level(
            adj=adj, vwgt={v: 1.0 for v in adj}, fine_to_coarse={v: v for v in adj}
        )
        assign = {0: 0, 1: 1, 2: 2, 3: 1, 4: 2, 5: 1}
        for seed in range(3):
            got = refine_level(
                level, assign, 3, max_load=100.0, rng=np.random.default_rng(seed)
            )
            want, _cut = _reference_refine_level(
                level, assign, 3, max_load=100.0, rng=np.random.default_rng(seed)
            )
            assert got == want == {**assign, 0: 1}

    def test_setup_large_dd_cut_is_pinned(self):
        """The DD of the e2e ``setup-large`` input, seed 1."""
        graph = barabasi_albert(3600, 3, seed=1)
        part = MultilevelPartitioner(seed=AnytimeConfig().seed).partition(graph, 4)
        assert edge_cut(graph, part) == 4239
