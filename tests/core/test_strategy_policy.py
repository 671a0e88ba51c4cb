"""Strategy-policy unit tests: the signal -> strategy decision ladder."""

from __future__ import annotations

import pytest

from repro import AnytimeConfig
from repro.core.strategies import (
    PolicyDrivenStrategy,
    SignalDrivenPolicy,
    ThresholdPolicy,
    make_strategy,
)
from repro.core.strategies.policy import (
    batch_attachment_edges,
    batch_intra_edges,
)
from repro.graph.changes import ChangeBatch, VertexAddition
from repro.obs import registry as series
from repro.obs.registry import MetricsRegistry, SignalView


def _signals(**gauges):
    """A SignalView over a hand-set registry (n=100, 4 workers default)."""
    reg = MetricsRegistry()
    defaults = {
        series.GRAPH_VERTICES: 100.0,
        series.ACTIVE_WORKERS: 4.0,
        series.LOAD_VERTEX_IMBALANCE: 0.0,
        series.LOAD_CUT_IMBALANCE: 0.0,
        series.DELTA_HIT_RATE: 0.0,
    }
    defaults.update(gauges)
    for name, value in sorted(defaults.items()):
        reg.gauge(name, value)
    return SignalView(reg)


def _batch(k, intra_per_vertex=0):
    """k new vertices, each with one anchor and ``intra_per_vertex``
    backward intra-batch edges."""
    batch = ChangeBatch()
    ids = list(range(1000, 1000 + k))
    for i, v in enumerate(ids):
        edges = [(0, 1.0)]
        for j in range(1, intra_per_vertex + 1):
            if i - j >= 0:
                edges.append((ids[i - j], 1.0))
        batch.vertex_additions.append(VertexAddition(v, tuple(edges)))
    return batch


def test_batch_edge_counters():
    batch = _batch(4, intra_per_vertex=1)
    assert batch_attachment_edges(batch) == 4
    assert batch_intra_edges(batch) == 3  # vertex 0 has no earlier peer


class TestSignalDrivenLadder:
    def test_imbalance_triggers_repartition(self):
        pol = SignalDrivenPolicy()
        name, reason = pol.choose(
            _signals(**{series.LOAD_VERTEX_IMBALANCE: 0.9}), _batch(4), step=1
        )
        assert (name, reason) == ("repartition", "imbalance")

    def test_imbalance_needs_a_worthwhile_batch(self):
        """High imbalance with a sub-threshold batch must not repartition."""
        pol = SignalDrivenPolicy(repartition_min_fraction=0.05)
        name, _ = pol.choose(
            _signals(**{series.LOAD_VERTEX_IMBALANCE: 0.9}), _batch(1), step=1
        )
        assert name != "repartition"

    def test_cut_imbalance_alone_does_not_repartition(self):
        """Cut imbalance tracks degree skew, not ownership skew — it
        must not fire the O(n) reshuffle on its own."""
        pol = SignalDrivenPolicy()
        name, _ = pol.choose(
            _signals(**{series.LOAD_CUT_IMBALANCE: 0.95}), _batch(4), step=1
        )
        assert name != "repartition"

    def test_boundary_heavy_triggers_cutedge(self):
        pol = SignalDrivenPolicy()
        name, reason = pol.choose(
            _signals(), _batch(6, intra_per_vertex=2), step=1
        )
        assert (name, reason) == ("cutedge", "boundary-heavy")

    def test_delta_hit_small_batch_triggers_roundrobin(self):
        pol = SignalDrivenPolicy()
        name, reason = pol.choose(
            _signals(**{series.DELTA_HIT_RATE: 0.8}), _batch(2), step=1
        )
        assert (name, reason) == ("roundrobin", "delta-hit")

    def test_fallback(self):
        pol = SignalDrivenPolicy(fallback="leastloaded")
        name, reason = pol.choose(_signals(), _batch(1), step=1)
        assert (name, reason) == ("leastloaded", "fallback")

    def test_ladder_is_ordered_imbalance_first(self):
        pol = SignalDrivenPolicy()
        sig = _signals(**{
            series.LOAD_VERTEX_IMBALANCE: 0.9,
            series.DELTA_HIT_RATE: 0.9,
        })
        name, _ = pol.choose(sig, _batch(6, intra_per_vertex=2), step=1)
        assert name == "repartition"


def test_auto_strategy_runs_the_signal_policy():
    strat = make_strategy("auto", AnytimeConfig(nprocs=4))
    assert isinstance(strat, PolicyDrivenStrategy)
    assert isinstance(strat.policy, SignalDrivenPolicy)


def test_threshold_policy_mirrors_adaptive_rule():
    cfg_view = _signals()
    pol = ThresholdPolicy(threshold=0.05)
    small, r1 = pol.choose(cfg_view, _batch(5), step=0)
    large, r2 = pol.choose(cfg_view, _batch(6), step=0)
    assert (small, r1) == ("roundrobin", "small-batch")
    assert (large, r2) == ("repartition", "large-batch")
