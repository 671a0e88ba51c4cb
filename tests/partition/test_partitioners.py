"""Behavioral tests for all partitioners."""

import pytest

from repro.graph import barabasi_albert, holme_kim, planted_partition
from repro.partition import (
    BFSGrowingPartitioner,
    ContiguousPartitioner,
    HashPartitioner,
    MultilevelPartitioner,
    RoundRobinPartitioner,
    SpectralPartitioner,
    balance,
    edge_cut,
    round_robin_assign,
)

from ..conftest import path_graph

ALL_PARTITIONERS = [
    MultilevelPartitioner(seed=0),
    SpectralPartitioner(seed=0),
    BFSGrowingPartitioner(seed=0),
    HashPartitioner(),
    RoundRobinPartitioner(),
    ContiguousPartitioner(),
]


@pytest.mark.parametrize("part", ALL_PARTITIONERS, ids=lambda p: p.name)
class TestCommonContract:
    def test_covers_vertex_set(self, part):
        g = barabasi_albert(150, 3, seed=1)
        p = part.partition(g, 4)
        p.validate_against(g)
        assert p.nparts == 4

    def test_single_part(self, part):
        g = barabasi_albert(30, 2, seed=1)
        p = part.partition(g, 1)
        assert p.block_sizes() == [30]
        assert edge_cut(g, p) == 0

    def test_empty_graph(self, part):
        from repro.graph import Graph

        p = part.partition(Graph(), 3)
        assert p.num_vertices == 0

    def test_invalid_nparts(self, part):
        g = path_graph(4)
        with pytest.raises((ValueError, Exception)):
            part.partition(g, 0)


@pytest.mark.parametrize(
    "part",
    [
        MultilevelPartitioner(seed=0),
        BFSGrowingPartitioner(seed=0),
        SpectralPartitioner(seed=0),
    ],
    ids=lambda p: p.name,
)
def test_cut_optimizers_respect_balance(part):
    g = barabasi_albert(200, 3, seed=2)
    p = part.partition(g, 8)
    assert balance(p) <= 1.30


def test_multilevel_beats_roundrobin_on_cut():
    g = holme_kim(400, 3, p_triad=0.7, seed=3)
    ml = MultilevelPartitioner(seed=3).partition(g, 8)
    rr = RoundRobinPartitioner().partition(g, 8)
    assert edge_cut(g, ml) < 0.75 * edge_cut(g, rr)


def test_multilevel_strict_balance():
    g = barabasi_albert(300, 3, seed=4)
    p = MultilevelPartitioner(seed=4, epsilon=0.1, strict_balance=True).partition(
        g, 4
    )
    assert balance(p) <= 1.1 + 1e-9


def test_multilevel_recovers_planted_blocks_mostly():
    g, truth = planted_partition([40, 40], 0.4, 0.01, seed=5)
    p = MultilevelPartitioner(seed=5).partition(g, 2)
    # the planted bisection is near-optimal; the partitioner's cut should be
    # close to the number of inter-block edges
    planted_cut = sum(
        1
        for u, v, _w in g.edges()
        if (u in set(truth[0])) != (v in set(truth[0]))
    )
    assert edge_cut(g, p) <= 2 * planted_cut + 5


def test_multilevel_deterministic():
    g = barabasi_albert(150, 3, seed=6)
    a = MultilevelPartitioner(seed=9).partition(g, 4)
    b = MultilevelPartitioner(seed=9).partition(g, 4)
    assert a.assignment == b.assignment


def test_multilevel_nparts_exceeds_vertices():
    g = path_graph(3)
    p = MultilevelPartitioner(seed=0).partition(g, 8)
    assert sorted(p.assignment.values()) == [0, 1, 2]


@pytest.mark.parametrize("nparts", [1, 3, 40], ids=["one-part", "main", "n+10"])
def test_multilevel_target_weights_length_checked_on_every_path(nparts):
    """The length check runs before the one-part and one-vertex-per-block
    early returns, not only on the multilevel path."""
    g = barabasi_albert(30, 2, seed=1)
    part = MultilevelPartitioner(target_weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="target_weights has 2 entries"):
        part.partition(g, nparts)


def test_roundrobin_perfectly_balanced():
    g = barabasi_albert(101, 2, seed=0)
    p = RoundRobinPartitioner().partition(g, 4)
    sizes = p.block_sizes()
    assert max(sizes) - min(sizes) <= 1


def test_round_robin_assign_offset_continuity():
    first = round_robin_assign([0, 1, 2], 4, start=0)
    second = round_robin_assign([3, 4], 4, start=3)
    combined = {**first, **second}
    sizes = [0] * 4
    for r in combined.values():
        sizes[r] += 1
    assert max(sizes) - min(sizes) <= 1


def test_hash_partitioner_stable_under_growth():
    g = barabasi_albert(50, 2, seed=0)
    p1 = HashPartitioner().partition(g, 4)
    g2 = g.copy()
    g2.add_vertex(999)
    p2 = HashPartitioner().partition(g2, 4)
    for v in g.vertices():
        assert p1.owner(v) == p2.owner(v)


def test_hash_owner_of_matches_partition():
    g = barabasi_albert(40, 2, seed=0)
    p = HashPartitioner().partition(g, 4)
    for v in g.vertices():
        assert HashPartitioner.owner_of(v, 4) == p.owner(v)


def test_contiguous_blocks_are_ranges():
    g = path_graph(10)
    p = ContiguousPartitioner().partition(g, 3)
    for block in p.blocks():
        assert block == list(range(block[0], block[0] + len(block)))


def test_bfs_growing_handles_disconnected():
    g = path_graph(6)
    g.add_edges([(20, 21)])
    p = BFSGrowingPartitioner(seed=1).partition(g, 2)
    p.validate_against(g)


def test_spectral_bisection_splits_two_cliques():
    from repro.graph import Graph

    edges = []
    for block in (range(0, 8), range(8, 16)):
        block = list(block)
        edges += [
            (block[i], block[j])
            for i in range(len(block))
            for j in range(i + 1, len(block))
        ]
    edges.append((0, 8))  # light bridge
    g = Graph.from_edges(edges)
    p = SpectralPartitioner(seed=0).partition(g, 2)
    assert edge_cut(g, p) == 1
