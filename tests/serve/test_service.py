"""UpdateService behavior: the streaming ingest loop over an engine."""

from __future__ import annotations

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.centrality import exact_closeness
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert
from repro.graph.changes import EdgeDeletion, VertexAddition
from repro.serve import (
    HybridAdmission,
    SizeAdmission,
    UpdateService,
    batch_to_events,
    events_to_batch,
)


def _engine(n=40, nprocs=4, seed=3):
    g = barabasi_albert(n, 2, seed=seed)
    eng = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, seed=seed, collect_snapshots=False)
    )
    eng.setup()
    return eng


def test_events_to_batch_roundtrip():
    events = [
        VertexAddition(100, ((0, 1.0),)),
        EdgeDeletion(0, 1),
        VertexAddition(101, ((100, 2.0),)),
    ]
    batch = events_to_batch(events)
    assert len(batch.vertex_additions) == 2
    assert len(batch.edge_deletions) == 1
    # flattening emits safe application order: additions first
    flat = batch_to_events(batch)
    assert flat[0].vertex == 100 and flat[1].vertex == 101
    assert isinstance(flat[2], EdgeDeletion)


def test_events_to_batch_rejects_non_events():
    with pytest.raises(ConfigurationError):
        events_to_batch(["not-an-event"])


def test_empty_flush_is_a_refinement_tick():
    svc = UpdateService(_engine(), strategy="roundrobin")
    tick = svc.flush()
    assert tick.admitted == 0
    assert tick.strategy == "" and tick.reason == ""
    assert tick.rc_steps == 1
    assert svc.batches_formed == 0
    # the tick still advanced the modeled clock deterministically
    assert tick.modeled_seconds > 0.0


def test_deadline_triggered_partial_batch():
    svc = UpdateService(
        _engine(),
        admission=HybridAdmission(max_events=8, max_delay_ticks=2),
        strategy="roundrobin",
    )
    svc.feed([VertexAddition(100, ((0, 1.0),)),
              VertexAddition(101, ((1, 1.0),))])
    held = svc.step()          # tick 0: fresh partial batch is held
    assert held.admitted == 0 and svc.pending_events == 2
    svc.step()                 # tick 1: still inside the deadline
    fired = svc.step()         # tick 2: staleness bound expires
    assert fired.admitted == 2
    assert fired.strategy == "roundrobin"
    assert svc.pending_events == 0


def test_mixed_add_delete_batch_routes_through_composite():
    """One admitted batch carrying additions AND a base-edge deletion must
    apply cleanly whatever strategy the policy picks."""
    eng = _engine()
    svc = UpdateService(
        eng, admission=SizeAdmission(max_events=3), strategy="auto"
    )
    # delete a base edge that keeps the graph connected (BA m=2 gives
    # every late vertex two anchors), plus two new vertices
    base_edge = next(
        (u, v) for u, v, _w in sorted(eng.graph.edges())
        if eng.graph.degree(u) >= 3 and eng.graph.degree(v) >= 3
    )
    svc.feed([
        VertexAddition(100, ((0, 1.0), (1, 1.0))),
        VertexAddition(101, ((100, 1.0),)),
        EdgeDeletion(*base_edge),
    ])
    tick = svc.step()
    assert tick.admitted == 3
    assert not eng.graph.has_edge(*base_edge)
    assert 100 in eng.graph and 101 in eng.graph
    result = svc.drain()
    assert result.converged
    exact = exact_closeness(eng.graph)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


def test_policy_switches_strategy_mid_stream():
    """A trickle batch and a bulk batch through the same service must
    route through different strategies (ThresholdPolicy is pure batch
    arithmetic, so the switch is deterministic by construction)."""
    g = barabasi_albert(60, 2, seed=3)
    eng = AnytimeAnywhereCloseness(
        g,
        AnytimeConfig(
            nprocs=4, seed=3, collect_snapshots=False,
            strategy_policy="threshold",
        ),
    )
    eng.setup()
    svc = UpdateService(
        eng, admission=SizeAdmission(max_events=2), strategy="auto"
    )
    # batch 1: a two-vertex trickle (<= 5% of |V|) -> RoundRobin-PS
    svc.feed([
        VertexAddition(100 + i, ((i, 1.0), (i + 1, 1.0))) for i in range(2)
    ])
    first = svc.step()
    # batch 2: six additions at once (> 5% of |V|) -> Repartition-S
    svc.admission = SizeAdmission(max_events=6)
    svc.feed([
        VertexAddition(200 + i, ((i, 1.0), (i + 1, 1.0))) for i in range(6)
    ])
    second = svc.step()
    decisions = svc.policy_decisions
    assert len(decisions) == 2
    assert [d.strategy for d in decisions] == [first.strategy, second.strategy]
    assert (first.strategy, first.reason) == ("roundrobin", "small-batch")
    assert (second.strategy, second.reason) == ("repartition", "large-batch")


def test_summaries_emitted_at_interval():
    svc = UpdateService(
        _engine(), admission=SizeAdmission(max_events=2),
        strategy="roundrobin", summary_interval=2,
    )
    svc.feed([VertexAddition(100, ((0, 1.0),)),
              VertexAddition(101, ((1, 1.0),))])
    for _ in range(4):
        svc.step()
    assert len(svc.summaries) == 2
    summ = svc.summaries[0]
    assert summ.tick == 2
    assert summ.events_admitted == 2
    assert summ.strategy_counts == {"roundrobin": 1}
    assert len(summ.lines()) == 5


def test_rejects_bad_summary_interval():
    with pytest.raises(ConfigurationError):
        UpdateService(_engine(), summary_interval=-1)
