"""The registered ``"adaptive"`` strategy and composite routing."""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.bench import community_workload
from repro.centrality import exact_closeness
from repro.core.strategies import (
    CompositeStrategy,
    PolicyDrivenStrategy,
    RoundRobinPS,
    ThresholdPolicy,
    VertexAdditionStrategy,
)
from repro.graph import ChangeBatch, barabasi_albert
from repro.graph.changes import (
    EdgeAddition,
    EdgeDeletion,
    VertexAddition,
    VertexDeletion,
)

from ..conftest import result_pin, run_and_verify


def run_adaptive(base, stream, final, threshold):
    """Run ``stream`` through ``strategy="adaptive"``; the result must be
    exact.  Returns ``(result, the resolved strategy)``."""
    engine = AnytimeAnywhereCloseness(
        base,
        AnytimeConfig(
            nprocs=4, collect_snapshots=False, repartition_threshold=threshold
        ),
    )
    with engine:
        engine.setup()
        strategy = engine.resolve_strategy("adaptive")
        result = engine.run(changes=stream, strategy=strategy)
    exact = exact_closeness(final)
    assert set(result.closeness) == set(exact)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9), f"vertex {v}"
    return result, strategy


def test_small_batch_uses_addition():
    wl = community_workload(100, 5, seed=1, inject_step=1)
    _, strategy = run_adaptive(wl.base, wl.stream, wl.final, 0.10)
    assert strategy.decisions[-1].line() == (
        "step=1 strategy=cutedge reason=small-batch"
    )


def test_large_batch_uses_repartition():
    wl = community_workload(100, 40, seed=2, inject_step=1)
    _, strategy = run_adaptive(wl.base, wl.stream, wl.final, 0.10)
    assert strategy.decisions[-1].line() == (
        "step=1 strategy=repartition reason=large-batch"
    )


def test_threshold_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy(1.5, small="cutedge")


def mixed_case():
    """One batch adding a vertex and an edge, deleting an edge and a vertex."""
    g = barabasi_albert(50, 2, seed=3)
    e0 = next(iter(g.edges()))
    batch = ChangeBatch(
        vertex_additions=[VertexAddition(100, edges=((0, 1.0),))],
        edge_additions=[EdgeAddition(5, 40, 1.0)],
        edge_deletions=[EdgeDeletion(e0[0], e0[1])],
        vertex_deletions=[VertexDeletion(20)],
    )
    final = g.copy()
    final.add_vertex(100)
    final.add_edge(100, 0, 1.0)
    if not final.has_edge(5, 40):
        final.add_edge(5, 40, 1.0)
    final.remove_edge(e0[0], e0[1])
    final.remove_vertex(20)
    return g, ChangeStream({1: batch}), final


def test_composite_routes_mixed_batch():
    g, stream, final = mixed_case()
    strategy = CompositeStrategy(VertexAdditionStrategy(RoundRobinPS()))
    run_and_verify(g, changes=stream, strategy=strategy, final=final, nprocs=4)


#: ``result_pin`` and the strategy chosen, recorded at b230718 — the last
#: commit where ``"adaptive"`` was a class of its own that counted the
#: batch and the graph itself; the threshold policy must do the same work
#: to the bit.  The three ``cutedge`` pins were re-pinned once when the
#: edge batch became one closure and one product per rank (same steps and
#: closeness).  Keys: (new vertices, threshold, seed) on
#: ``community_workload(100, k, inject_step=1)``, or ("mixed", threshold).
ADAPTIVE_PINS = {
    (5, 0.10, 1): ("5|0x1.43a0ee6103b85p-7|46694|44839|47db5161510c1078", "cutedge"),
    (5, 0.10, 2): ("4|0x1.261ba03686eabp-7|41142|39266|b23839f9ebc83086", "cutedge"),
    (40, 0.10, 1): ("7|0x1.144bfe398c00bp-6|96154|83862|7dc5fa1bb46e76b6", "repartition"),
    (40, 0.10, 2): ("7|0x1.0d95a7611e521p-6|92155|81813|5fe088ece4c94b88", "repartition"),
    (12, 0.05, 1): ("6|0x1.96508a6c1a277p-7|66574|57852|90375e7aca8c9cfb", "repartition"),
    (12, 0.05, 2): ("7|0x1.a6693e3988fd1p-7|64319|56248|bc79e05ce876454e", "repartition"),
    (3, 0.0, 1): ("5|0x1.4e3b6eb3d5072p-7|60406|51815|ebf91c9cbfddba1b", "repartition"),
    (3, 0.0, 2): ("6|0x1.69f07fe6f203cp-7|58958|50444|b1b4a196777f9f1c", "repartition"),
    ("mixed", 0.01): ("6|0x1.860a515e8e3cfp-8|10215|9682|b169941f19cc870c", "repartition"),
    ("mixed", 0.5): ("5|0x1.7bb8117324571p-8|10034|9452|b169941f19cc870c", "cutedge"),
}


@pytest.mark.parametrize("case", ADAPTIVE_PINS, ids=str)
def test_adaptive_does_the_work_it_did_as_a_class(case):
    if case[0] == "mixed":
        base, stream, final = mixed_case()
    else:
        wl = community_workload(100, case[0], seed=case[2], inject_step=1)
        base, stream, final = wl.base, wl.stream, wl.final
    result, strategy = run_adaptive(base, stream, final, case[1])
    pin, choice = ADAPTIVE_PINS[case]
    assert [d.strategy for d in strategy.decisions] == [choice]
    assert result_pin(result) == pin


def test_engine_adaptive_name():
    g = barabasi_albert(30, 2, seed=4)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=2, repartition_threshold=0.2)
    )
    strategy = engine.resolve_strategy("adaptive")
    assert isinstance(strategy, PolicyDrivenStrategy)
    assert isinstance(strategy.policy, ThresholdPolicy)
    assert (strategy.policy.threshold, strategy.policy.small) == (0.2, "cutedge")


def test_engine_adaptive_handles_mixed_batches():
    """Deletions must reach the deletion strategies under 'adaptive' too."""
    g = barabasi_albert(40, 2, seed=5)
    e = next(iter(g.edges()))
    final = g.copy()
    final.remove_edge(e[0], e[1])
    final.add_vertex(100)
    final.add_edge(100, 3, 1.0)
    batch = ChangeBatch(
        vertex_additions=[VertexAddition(100, edges=((3, 1.0),))],
        edge_deletions=[EdgeDeletion(e[0], e[1])],
    )
    run_and_verify(
        g,
        changes=ChangeStream({1: batch}),
        strategy="adaptive",
        final=final,
        nprocs=4,
    )
